"""Abelian extensions: extracting and rebuilding from factor systems.

Run:  python demos/03_extensions_and_cocycles.py
"""

from rrbgroups import (
    RRBIdeal,
    are_equivalent,
    build_extension,
    canonical_section,
    cochain_complex,
    cyclic_group,
    extract_factor_system,
    extract_module,
    product_extension,
    quotient_rrb,
    restrict,
    subgroup_closure,
    trivial_rrb,
    validate_extension,
    zero_factor_system,
)

# Z9 with no operator content, seen as an extension of Z3 by Z3: the total
# group's carry bits form the factor system.
Z9 = cyclic_group(9)
total = trivial_rrb(Z9, cyclic_group(1), name="Z9")
K = subgroup_closure(Z9, [3])
kernel, incl = restrict(total, K, [0])
quot = quotient_rrb(total, RRBIdeal(tuple(K), (0,)))
ext = validate_extension(kernel, total, quot.rrb, incl, quot.projection)
print(ext)

sec = canonical_section(ext)
print("canonical section of the quotient:", sec.s_H.tolist())

module = extract_module(ext)
fs = extract_factor_system(ext)
print("tau1 (the carry cocycle):")
for row in fs.tau1.tolist():
    print("   ", row)

# The module's cohomology classifies all extensions with this action: here
# H2 is Z/3, so there are three inequivalent ones (Z9 twice, Z3 x Z3 once).
cx = cochain_complex(module)
print("cocycles:", cx.z2.order, " coboundaries:", cx.b2.order,
      " classes:", cx.h2.order)

built = {}
for cls in cx.h2_classes():
    rep = cx.class_representative(cls)
    e = build_extension(module.quotient, module.kernel, module.action, rep)
    built[cls.coords] = e
    print("class", cls.coords, "-> total group exponent",
          max(e.total.H.element_order(x) for x in e.total.H.elements()))

print("Z9 lies in class", cx.class_of(fs).coords)
prod = product_extension(module.quotient, module.kernel)
print("direct product equivalent to class (0,):",
      are_equivalent(prod, built[(0,)]))

# Rebuilding from the extracted data reproduces the extension up to
# equivalence, and extraction of a built extension is exactly the input.
again = build_extension(module.quotient, module.kernel, module.action, fs)
print("rebuilt extension equivalent to the original:", are_equivalent(again, ext))
print("its factor system extracts back unchanged:",
      extract_factor_system(again) == fs)
