"""Every kept single-object call against row 0 of its stacked twin.

Each single-object query of the lattice, cocycle and automorphism layers is
the one-row case of a stacked query.  Here each runs on the corpora with its
object as row 0 of a stack whose other rows are members, and must give what
the stack gives for that row: the same values, or the same error code,
message and witness.
"""

import random

import numpy as np
import pytest

from rrbgroups import (
    GroupError,
    OneCochain,
    WellsContext,
    aut_AK_H,
    aut_K_H,
    aut_to_z1,
    cochain_complex,
    is_inducible,
    pair_is_compatible,
    product_extension,
    restrict_and_induce,
    trivial_rrb,
    validate_morphism,
    wells_map,
    z1_to_aut,
)
from rrbgroups.wells import (
    _aut_to_z1,
    _compatible,
    _inducible,
    _omega,
    _Pairs,
    _restrict,
    _stack_of,
    _twisted,
    _z1_to_aut,
)
from oracles import _morphism_key, _pair_key, fs_from_key, fs_positions

WELLS_EXTS = ("product_z2", "built_z2", "z4_carry", "z9", "s3", "z3_z4_twist",
              "z2_z4_image", "z2_z4_kernel", "z4_z4_diag", "parity_zero",
              "parity_twisted", "z3_triv", "z9_mul4", "z4_klein_f")


def outcome(call, *args):
    """What a call does: ("returns", its value), or ("raises", code, message,
    witness)."""
    try:
        return "returns", call(*args)
    except GroupError as exc:
        return "raises", exc.code, str(exc), exc.witness


def stack(rows) -> list:
    """Per field, the stack of one array field over a list of objects."""
    return [np.stack(field) for field in zip(*rows)]


def fs_arrays(fs) -> tuple:
    return fs.tau1, fs.tau2, fs.rho, fs.chi


def factor_systems(cx, rng) -> list:
    """Cocycles, coboundaries and random 2-cochains of a complex."""
    module = cx.module
    coords = [[rng.randrange(d) for d in cx.z2.factors] for _ in range(4)]
    coords = np.array(coords, dtype=np.int64).reshape(4, len(cx.z2.factors))
    cocycles = [cx.fs_from_coords(v) for v in cx.z2.representative(coords)]
    kappas = [OneCochain(*cx.kappa_from_coords(np.array(
        [rng.randrange(m) for m in cx.c1_moduli], dtype=np.int64))) for _ in range(3)]
    drawn = [fs_from_key(module, [rng.randrange(size) for *_, size in fs_positions(module)])
             for _ in range(4)]
    return cocycles + [cx.coboundary(k) for k in kappas] + drawn


class TestCochainRows:
    def test_class_of_is_a_row_of_class_coords(self, module_corpus):
        rng, seen = random.Random(0), set()
        for name, module in module_corpus.items():
            cx = cochain_complex(module)
            systems = factor_systems(cx, rng)
            cocycles = [fs for fs in systems if cx.z2_contains(fs)[0]]
            for fs in systems:
                coords, member = cx.h2.class_coords(
                    cx.c2_coords(stack(map(fs_arrays, [fs] + cocycles))))
                got = outcome(cx.class_of, fs)
                seen.add(got[0])
                if member[0]:
                    assert got == ("returns", cx.class_of(fs)), name
                    assert got[1].coords == tuple(coords[0].tolist()), name
                else:
                    _, witness = cx.z2_contains(fs)
                    assert got == ("raises", "NotACocycle",
                                   f"NotACocycle: not a cocycle: condition {witness[0]} "
                                   f"fails at {witness[1]}", ()), name
        assert seen == {"returns", "raises"}

    def test_class_of_is_a_row_of_classes(self, module_corpus):
        # The stacked class map, with the object first and then last behind
        # cocycles: the same class row, or the same refusal.
        rng, seen = random.Random(3), set()
        for name, module in module_corpus.items():
            cx = cochain_complex(module)
            systems = factor_systems(cx, rng)
            cocycles = [fs for fs in systems if cx.z2_contains(fs)[0]]
            for fs in systems:
                single = outcome(cx.class_of, fs)
                seen.add(single[0])
                for at, rows in ((0, [fs] + cocycles), (len(cocycles), cocycles + [fs])):
                    stacked = outcome(cx.classes, cx.c2_coords(stack(map(fs_arrays, rows))))
                    if single[0] == "returns":
                        assert stacked[0] == "returns", name
                        assert tuple(stacked[1][at].tolist()) == single[1].coords, name
                    else:
                        assert single[1] == "NotACocycle" and stacked == single, name
        assert seen == {"returns", "raises"}

    def test_solve_coboundary_is_a_row_of_membership_coefficients(self, module_corpus):
        rng, seen = random.Random(1), set()
        for name, module in module_corpus.items():
            cx = cochain_complex(module)
            systems = factor_systems(cx, rng)
            for fs in systems:
                vecs = cx.c2_coords(stack(map(fs_arrays, [fs] + systems)))
                coefficients, member = cx.b2.membership_coefficients(vecs)
                assert cx.b2.contains(vecs[0]) == member[0], name
                solution = cx.solve_coboundary(fs)
                seen.add(solution is None)
                if not member[0]:
                    assert solution is None, name
                    continue
                assert solution == OneCochain(*cx.kappa_from_coords(coefficients[0])), name
                assert cx.coboundary(solution) == fs, name
        assert seen == {True, False}

    def test_z1_contains_is_a_row_of_z1_defects(self, module_corpus):
        rng, seen = random.Random(2), set()
        for name, module in module_corpus.items():
            cx = cochain_complex(module)
            derivations = list(cx.z1_elements())[:4]
            drawn = [OneCochain(*cx.kappa_from_coords(np.array(
                [rng.randrange(m) for m in cx.c1_moduli], dtype=np.int64))) for _ in range(6)]
            kappas = derivations + drawn
            bad, witness = cx.z1_defects(*stack((k.kappa1, k.kappa2) for k in kappas))
            assert bad.tolist() == [not cx.z1_contains(k)[0] for k in kappas], name
            # The witness is the first failing row's, wherever that row is.
            first = next((k for k, b in zip(kappas, bad) if b), kappas[0])
            assert witness == cx.z1_contains(first)[1], name
            seen.update(bad.tolist())
            for kappa in kappas:
                bad, witness = cx.z1_defects(
                    *stack((k.kappa1, k.kappa2) for k in [kappa] + derivations))
                assert cx.z1_contains(kappa) == (not bad[0], witness), name
        assert seen == {True, False}


@pytest.fixture(scope="module")
def contexts(ext_corpus):
    return {name: WellsContext(ext_corpus[name]) for name in WELLS_EXTS}


def zero_endomorphism(ctx):
    """The map of the total onto its identity: a morphism, no automorphism."""
    total = ctx.ext.total
    return validate_morphism(total, total, [0] * total.H.order, [0] * total.G.order)


def images(gammas) -> list:
    return stack((g.psi.image, g.eta.image) for g in gammas)


class TestLiftingRows:
    def test_z1_to_aut_is_a_row_of_the_stack(self, contexts):
        seen = set()
        for name, ctx in contexts.items():
            cx = ctx.complex
            derivations = list(cx.z1_elements())
            module = ctx.module
            one_K, one_L = 1 % module.K.order, 1 % module.L.order
            others = [OneCochain([0] + [one_K] * (module.A.order - 1), [0] * module.B.order),
                      OneCochain([0] * module.A.order, [0] + [one_L] * (module.B.order - 1))]
            for kappa in derivations + others:
                rows = stack((k.kappa1, k.kappa2) for k in [kappa] + derivations)
                single = outcome(z1_to_aut, ctx, kappa)
                stacked = outcome(_z1_to_aut, ctx, *rows)
                seen.add(single[0])
                if single[0] == "returns":
                    assert _morphism_key(single[1]) == tuple(
                        tuple(x[0].tolist()) for x in stacked[1]), name
                else:
                    assert single[1] == "NotInZ1" and single == stacked, name
        assert seen == {"returns", "raises"}

    def test_aut_to_z1_is_a_row_of_the_stack(self, contexts):
        seen = set()
        for name, ctx in contexts.items():
            stable = aut_AK_H(ctx)
            for gamma in aut_K_H(ctx) + [zero_endomorphism(ctx)]:
                single = outcome(aut_to_z1, ctx, gamma)
                stacked = outcome(_aut_to_z1, ctx, *images([gamma] + stable))
                seen.add(single[0])
                if single[0] == "returns":
                    kappa1, kappa2 = stacked[1]
                    assert single[1] == OneCochain(kappa1[0], kappa2[0]), name
                else:
                    assert single[1] == "NotInAutAK" and single == stacked, name
        assert seen == {"returns", "raises"}

    def test_restrict_and_induce_is_a_row_of_the_stack(self, contexts):
        seen = set()
        for name, ctx in contexts.items():
            auts = aut_K_H(ctx)
            for gamma in auts + [zero_endomorphism(ctx)]:
                single = outcome(restrict_and_induce, ctx, gamma)
                stacked = outcome(_restrict, ctx, *images([gamma] + auts))
                seen.add(single[1] if single[0] == "raises" else "returns")
                if single[0] == "returns":
                    assert _pair_key(single[1]) == tuple(
                        tuple(x[0].tolist()) for x in stacked[1]), name
                else:
                    assert single == stacked, name
        assert seen == {"returns", "NotInjective"}

    def test_kernel_moving_automorphism_raises_alike(self, groups):
        z2 = groups["z2"]
        ext = product_extension(trivial_rrb(z2, z2), trivial_rrb(z2, z2))
        ctx = WellsContext(ext)
        swap, ident = [0, 2, 1, 3], [0, 1, 2, 3]
        for psi, eta in ((swap, ident), (ident, swap)):
            gamma = validate_morphism(ext.total, ext.total, psi, eta)
            rows = images([gamma] + aut_AK_H(ctx))
            for single, stacked in ((restrict_and_induce, _restrict), (aut_to_z1, _aut_to_z1)):
                got = outcome(single, ctx, gamma)
                assert got[1] == "ImageKernelMismatch" and got == outcome(stacked, ctx, *rows)

    def test_pair_queries_are_rows_of_the_stack(self, contexts):
        seen = set()
        for name, ctx in contexts.items():
            P = _Pairs(*map(np.concatenate, zip(*(_stack_of(p) for p in ctx.all_pairs))))
            compatible = _compatible(ctx.module, P)
            C = P.take(compatible)
            twisted = _twisted(ctx, C)
            omega = _omega(ctx, twisted)
            member, on_H, on_G = _inducible(ctx, C, twisted)
            lifts = iter(zip(on_H.tolist(), on_G.tolist()))
            c = 0
            for pair, ok in zip(ctx.all_pairs, compatible):
                assert pair_is_compatible(ctx.module, pair) == ok, name
                inducible, witness = is_inducible(ctx, pair)
                seen.add((bool(ok), inducible))
                if not ok:
                    assert (inducible, witness) == (False, None), name
                    continue
                assert wells_map(ctx, pair).coords == tuple(omega[c].tolist()), name
                assert inducible == member[c], name
                if inducible:
                    psi, eta = next(lifts)
                    assert _morphism_key(witness) == (tuple(psi), tuple(eta)), name
                c += 1
        assert seen == {(False, False), (True, False), (True, True)}
