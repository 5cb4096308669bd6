"""Walk through the decomposition of an ideal with an embedded prime.

The ideal (x^2, x*y) cuts out the y-axis with an extra infinitesimal
thickening at the origin: one minimal component on the axis and one
embedded component sitting at the point where the thickening lives.
"""

from primarydec import (
    MonomialOrder,
    RingContext,
    equidim_hull,
    ideal,
    localize_module,
    primary_decomposition,
    render_polynomial,
    validate_decomposition,
)


def show(A):
    return ", ".join(render_polynomial(g) for g in A.generators) or "0"


R = RingContext(("x", "y"), MonomialOrder(kind="degrevlex"))
x, y = R.variable(0), R.variable(1)
I = ideal(R, [x * x, x * y])

print("input ideal:", show(I))
print("equidimensional hull:", show(equidim_hull(I)))
print()

result = primary_decomposition(I)
for k, comp in enumerate(result.components, start=1):
    kind = "embedded" if comp.embedded else "isolated"
    print(f"component {k} ({kind}, codim {comp.codim})")
    print("  primary module:", show(comp.module))
    print("  associated prime:", show(comp.prime))
    print("  witness exponent:", comp.witness_exponent)
    for m, hull in comp.hull_trace:
        print(f"  hull of input + prime^{m}:", show(hull))
    print()

report = validate_decomposition(I, result.components)
print("validator:", "ok" if report.ok else report.messages)

# Localizing at the minimal prime strips the embedded part.
P = ideal(R, [x])
print("localized at (x):", show(localize_module(I, P)))
