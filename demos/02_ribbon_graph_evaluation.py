"""Evaluating colored ribbon graphs in the thickened disk.

Diagrams are sliced words: each slice is a horizontal tensor of generators
(identities, cups/caps, braidings, twists, coupons) and evaluation is just
matrix algebra -- monoidal across a slice, functorial up the slices.  The
framed Reidemeister moves then become exact matrix identities.
"""

from modskein.bundles import sweedler_bundle, z4_bundle
from modskein.cyclo import ExactMatrix
from modskein.rt import Diagram, Generator, evaluate, skein_module_disk

b = sweedler_bundle()
P = ("proj_plus", "+")


def gen(kind, *points):
    return Generator(kind, points=points)


print("== a zig-zag straightens ==")
zig = Diagram([P], [P], [
    [gen("coev", P), gen("id", P)],
    [gen("id", P), gen("ev", P)],
])
print(" evaluate == identity:",
      evaluate(b, zig) == ExactMatrix.identity(b.field, 2))

print()
print("== Reidemeister III as an exact matrix identity ==")
A, B, C = P, ("proj_minus", "+"), ("sgn", "+")
lhs = Diagram([A, B, C], [C, B, A], [
    [gen("braid", A, B), gen("id", C)],
    [gen("id", B), gen("braid", A, C)],
    [gen("braid", B, C), gen("id", A)],
])
rhs = Diagram([A, B, C], [C, B, A], [
    [gen("id", A), gen("braid", B, C)],
    [gen("braid", A, C), gen("id", B)],
    [gen("id", C), gen("braid", A, B)],
])
print(" both slidings agree:", evaluate(b, lhs) == evaluate(b, rhs))

print()
print("== closed loops evaluate to twisted traces ==")
for bundle in (b, z4_bundle()):
    for name in sorted(bundle.modules):
        m = (name, "+")
        loop = Diagram([], [], [
            [gen("coev", m)],
            [gen("twist", m), gen("id", (name, "-"))],
            [gen("ev_piv", m)],
        ])
        val = evaluate(bundle, loop).data[0][0]
        gv = bundle.elem_mult(bundle.pivotal_elem(), bundle.ribbon_inverse())
        oracle = bundle.module(name).act(gv).trace()
        print(" %-8s loop on %-10s = %-14s (oracle tr(rho(g v^-1)) agrees: %s)"
              % (bundle.name, name, val, val == oracle))

print()
print("== relative skein modules of the disk ==")
print(" Sk(disk; (P+,P+))     dim:", len(skein_module_disk(b, [P], [P])))
print(" Sk(disk; (H,+)->(H,+)) dim:",
      len(skein_module_disk(b, [("reg", "+")], [("reg", "+")])),
      " (= dim H for the regular color)")
print(" Sk(disk; (P+,P-) -> ()) dim:",
      len(skein_module_disk(b, [P, ("proj_plus", "-")], [])))
