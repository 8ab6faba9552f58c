"""Arrangements, words of Blank, contraction, Seifert splitting, and the
extendability verdict on the reference and figure fixtures.
"""

import numpy as np
import pytest

from liouville_disk.arrangement import _other_strand_distance, build_arrangement
from liouville_disk.blank import (
    BlankWord,
    Letter,
    blank_word,
    contract,
    extendability_check,
    seifert_decompose,
)
from liouville_disk.curves import PolyCurve, rotation_index
from liouville_disk.disk import analytic_completion, boundary_polyline, build_phi
from liouville_disk.fixtures import (
    circle,
    fblank_first,
    fblank_second,
    figure_eight,
    fseifert,
    glued_positive_loops,
    limacon,
    marked_square,
)
from liouville_disk.line import pull_back

PAPER_WORD = BlankWord.parse("a0- b1+ c0+ a1+ b0+")
INFINITY_WORD = BlankWord.parse("a0+ b0-")


class TestArrangement:
    def test_circle_two_faces(self):
        arr = build_arrangement(circle(256))
        assert len(arr.faces) == 2
        assert len(arr.bounded_faces) == 1

    def test_limacon_three_faces_euler(self):
        # V = 1 crossing, E = 2 arcs, so F = 3 by the Euler relation
        arr = build_arrangement(limacon())
        assert len(arr.crossings) == 1
        assert len(arr.arcs) == 2
        assert len(arr.faces) == 3
        assert sum(f.bounded for f in arr.faces) == 2

    def test_figure_eight_three_faces(self):
        arr = build_arrangement(figure_eight())
        assert len(arr.faces) == 3
        assert sum(f.bounded for f in arr.faces) == 2

    def test_exactly_one_unbounded(self):
        for c in (circle(128), limacon(), fseifert()):
            arr = build_arrangement(c)
            assert sum(not f.bounded for f in arr.faces) == 1

    def test_witnesses_locate_in_own_face(self):
        arr = build_arrangement(fseifert())
        for f in arr.bounded_faces:
            assert arr.face_of_point(f.witness).id == f.id

    def test_face_of_far_point_unbounded(self):
        arr = build_arrangement(limacon())
        assert not arr.face_of_point([50.0, 50.0]).bounded

    def test_strand_distance_matches_per_edge_loop(self):
        # reference: one point-to-segment projection per edge; the vectorised
        # pass must give the same bits, since the distance places witnesses
        def loop_distance(p, vertices, host_len):
            d = []
            for a, b in zip(vertices, np.roll(vertices, -1, axis=0)):
                ab = b - a
                denom = float(ab @ ab)
                t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
                d.append(float(np.hypot(*(p - (a + t * ab)))))
            d = np.array(d)
            far = d[d > 0.51 * host_len]
            return float(np.min(far)) if far.size else host_len

        rng = np.random.default_rng(3)
        # a random 40-gon with one repeated vertex (a zero-length edge); on
        # its generic coordinates an elementwise dot product rounds
        # differently from `@` for several points in a hundred
        v = rng.normal(size=(40, 2))
        v = np.insert(v, 5, v[5], axis=0)
        for p in rng.uniform(-2.0, 2.0, size=(300, 2)):
            assert _other_strand_distance(p, v, 0.01) == loop_distance(p, v, 0.01)


class TestBlankWord:
    def test_circle_single_positive_letter(self):
        rec = blank_word(circle(256), seed=7)
        assert rec.word.canonical() == "a0+"

    def test_limacon_all_positive_two_names(self):
        rec = blank_word(limacon(), seed=7)
        assert all(l.sign > 0 for l in rec.word.letters)
        assert len({l.face for l in rec.word.letters}) == 2
        assert len(rec.word) == 3

    def test_figure_eight_matches_infinity_word(self):
        rec = blank_word(figure_eight(), seed=7)
        assert rec.word.canonical() == INFINITY_WORD.canonical()

    def test_fblank_first_matches_figure_word(self):
        rec = blank_word(fblank_first(), seed=7)
        assert rec.word.canonical() == PAPER_WORD.canonical()

    def test_deterministic_given_seed(self):
        c = fblank_first()
        a = blank_word(c, seed=3)
        b = blank_word(c, seed=3)
        assert str(a.word) == str(b.word)
        assert a.positions == b.positions

    def test_indices_consecutive_per_ray(self):
        rec = blank_word(fblank_first(), seed=7)
        for ray in rec.rays.values():
            assert [h[0] for h in ray.hits] == sorted(h[0] for h in ray.hits)
        by_face = {}
        for l in rec.word.letters:
            by_face.setdefault(l.face, []).append(l.index)
        for idxs in by_face.values():
            assert sorted(idxs) == list(range(len(idxs)))


class TestContract:
    def test_paper_word_contracts_with_stated_step(self):
        res = contract(PAPER_WORD)
        assert res.contracted
        first = res.steps[0]
        assert " ".join(str(l) for l in first.removed) == "a1+ b0+ a0-"
        assert " ".join(str(l) for l in first.word_after) == "b1+ c0+"

    def test_infinity_word_does_not_contract(self):
        assert not contract(INFINITY_WORD).contracted

    def test_empty_word_vacuous(self):
        assert contract(BlankWord(())).contracted

    def test_all_positive_already_contracted(self):
        res = contract(BlankWord.parse("a0+ b0+ a1+"))
        assert res.contracted and not res.steps

    def test_verdict_invariant_under_rotation_and_renaming(self):
        rng = np.random.default_rng(11)
        faces = "abcdef"
        for _ in range(100):
            n = int(rng.integers(2, 9))
            letters = tuple(
                Letter(faces[rng.integers(0, 4)], int(rng.integers(0, 3)),
                       1 if rng.random() < 0.6 else -1)
                for _ in range(n)
            )
            w = BlankWord(letters)
            base = contract(w).contracted
            # rotations
            for rot in w.rotations():
                assert contract(rot).contracted == base
            # renaming: swap two face names
            perm = {f: f for f in faces}
            a, b = faces[0], faces[int(rng.integers(1, 4))]
            perm[a], perm[b] = perm[b], perm[a]
            renamed = BlankWord(tuple(Letter(perm[l.face], l.index, l.sign) for l in letters))
            assert contract(renamed).contracted == base

    def test_canonical_equality_across_rotation_renaming(self):
        w = PAPER_WORD
        for rot in w.rotations():
            assert rot.canonical() == w.canonical()


class TestSeifert:
    def test_circle_is_its_own_decomposition(self):
        pieces = seifert_decompose(circle(256))
        assert len(pieces) == 1 and pieces[0][1] == 1

    def test_limacon_two_positive_loops(self):
        pieces = seifert_decompose(limacon())
        assert len(pieces) == 2
        assert all(o == 1 for _, o in pieces)
        assert sum(o for _, o in pieces) == rotation_index(limacon()).index

    def test_seifert_figure_three_loops(self):
        pieces = seifert_decompose(fseifert())
        assert len(pieces) == 3
        assert sorted(o for _, o in pieces) == [-1, 1, 1]
        assert sum(o for _, o in pieces) == 1

    def test_figure_eight_opposite_pair(self):
        pieces = seifert_decompose(figure_eight())
        assert sorted(o for _, o in pieces) == [-1, 1]

    def test_glued_loops_smoke(self):
        for seed in range(6):
            m = 2 + seed % 3
            c, mm = glued_positive_loops(m, seed=seed)
            pieces = seifert_decompose(c)
            assert len(pieces) == mm
            assert all(o == 1 for _, o in pieces)
            assert rotation_index(c).index == mm


class TestExtendability:
    @pytest.mark.parametrize("mu,x0", [(0.25, 0.0), (1.0, 0.0), (4.0, 0.0), (2.0, 1.0)])
    def test_immersion_boundary_passes(self, mu, x0):
        # boundaries of maps built from the explicit solution family satisfy
        # both necessary conditions in every trial
        def u(x):
            return np.log(2 * mu / (1 + mu**2 * (np.asarray(x, dtype=float) - x0) ** 2))

        lf = pull_back(u, 256, anchor_coeff=0.0, pole_value=-np.log(mu))
        d = build_phi(analytic_completion(lf.field))
        verts, _ = boundary_polyline(d, 256)
        rep = extendability_check(PolyCurve(verts), seed=5)
        assert rep.index_ok and rep.word_contracts
        assert rep.index == 1

    def test_recentered_immersion_boundary_passes(self):
        from liouville_disk.disk import mobius_recenter

        def u(x):
            return np.log(2.0 / (1 + np.asarray(x, dtype=float) ** 2))

        lf = pull_back(u, 256, anchor_coeff=0.0, pole_value=0.0)
        d = mobius_recenter(build_phi(analytic_completion(lf.field)), 1j, 0.6)
        verts, _ = boundary_polyline(d, 256)
        rep = extendability_check(PolyCurve(verts), seed=5)
        assert rep.index_ok and rep.word_contracts

    def test_figure_eight_fails_index(self):
        rep = extendability_check(figure_eight(), seed=5)
        assert not rep.index_ok
        assert not rep.word_contracts

    def test_fblank_second_word_fails(self):
        rep = extendability_check(fblank_second(), seed=5)
        assert not rep.word_contracts

    def test_fblank_first_passes_with_gluing_identity(self):
        rep = extendability_check(fblank_first(), seed=7)
        assert rep.index_ok and rep.word_contracts
        assert rep.gluing is not None
        assert rep.gluing["identity_holds"]
        assert sum(rep.gluing["piece_indices"]) - (len(rep.gluing["piece_indices"]) - 1) == rep.index

    def test_double_pocket_two_step_gluing(self):
        # two pockets force a two-step contraction; each step slices off a
        # piece along its escape segment, and the piece indices must glue back
        # to the full rotation index
        from liouville_disk.fixtures import double_pocket

        c = double_pocket()
        assert rotation_index(c).index == 2
        rep = extendability_check(c, seed=3)
        assert rep.index_ok and rep.word_contracts
        assert len(rep.contraction.steps) == 2
        assert sum(l.sign < 0 for l in rep.word.letters) == 2
        assert rep.gluing is not None and rep.gluing["identity_holds"]
        assert rep.gluing["identity_value"] == 2
        pieces = seifert_decompose(c)
        assert sum(o for _, o in pieces) == 2

    def test_marked_square_passes(self):
        # corners are flattened before the word is built
        rep = extendability_check(marked_square(), seed=5)
        assert rep.index_ok and rep.word_contracts

    def test_glued_loops_all_positive_words(self):
        for seed in (3, 4, 5):
            c, m = glued_positive_loops(2 + seed % 3, seed=seed)
            rep = extendability_check(c, seed=seed)
            assert rep.index_ok and rep.word_contracts
            assert all(l.sign > 0 for l in rep.word.letters)


def test_word_json_roundtrip():
    rec = blank_word(fblank_first(), seed=7)
    obj = rec.word.to_json()
    assert obj["canonical"] == PAPER_WORD.canonical()
    back = BlankWord(tuple(Letter(f, i, 1 if s == "+" else -1) for f, i, s in obj["letters"]))
    assert back.canonical() == rec.word.canonical()
