from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsets.gf2 import BitVector
from magicsets.hypergraph import incidence_matrix, parse_edge_list
from magicsets.pauli import (
    MagicAssignment,
    PauliString,
    decode,
    encode,
    gram_matrix_of,
    multiply,
    symplectic_product,
    verify_assignment,
)

letters = st.text(alphabet="IXYZ", min_size=1, max_size=8)

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# Single-qubit products as (power of i, letter), built from X.Y = iZ and
# its cyclic variants; reversed order flips the sign.  The letter table
# ``multiply`` looked up per qubit before it counted cyclic and anticyclic
# letter pairs with bit masks, kept as its oracle.
_CYCLE = {("X", "Y"): "Z", ("Y", "Z"): "X", ("Z", "X"): "Y"}
_PRODUCT: dict[tuple[str, str], tuple[int, str]] = {}
for a in "IXYZ":
    for b in "IXYZ":
        if a == "I":
            _PRODUCT[a, b] = (0, b)
        elif b == "I":
            _PRODUCT[a, b] = (0, a)
        elif a == b:
            _PRODUCT[a, b] = (0, "I")
        elif (a, b) in _CYCLE:
            _PRODUCT[a, b] = (1, _CYCLE[a, b])
        else:
            _PRODUCT[a, b] = (3, _CYCLE[b, a])


def table_multiply(words: list[str]) -> tuple[int, str]:
    """(power of i, letters) of the product of the words, left to right,
    one ``_PRODUCT`` lookup per qubit and factor."""
    power, acc = 0, words[0]
    for w in words[1:]:
        steps = [_PRODUCT[x, y] for x, y in zip(acc, w)]
        power += sum(dp for dp, _ in steps)
        acc = "".join(letter for _, letter in steps)
    return power % 4, acc


def matrix_of(word: str) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for c in word:
        m = np.kron(m, _MATS[c])
    return m


class TestEncoding:
    def test_five_qubit_packing(self):
        p = encode("IXYXZ")
        assert p.symplectic.to_tuple() == (0, 1, 0, 1, 1, 0, 0, 1, 0, 1)

    def test_identity(self):
        assert encode("I").symplectic.to_tuple() == (0, 0)

    def test_z(self):
        assert encode("Z").symplectic.to_tuple() == (1, 1)

    @given(letters)
    def test_round_trip(self, word):
        assert decode(encode(word)) == word

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            encode("XQ")

    def test_empty(self):
        with pytest.raises(ValueError):
            encode("")

    def test_symplectic_vector_round_trip(self):
        p = encode("XYZI")
        assert PauliString.from_symplectic(p.symplectic) == p


class TestSymplecticProduct:
    def test_x_z_anticommute(self):
        assert symplectic_product(encode("X"), encode("Z")) == 1

    @given(letters)
    def test_self_product_zero(self, word):
        p = encode(word)
        assert symplectic_product(p, p) == 0

    def test_xx_zz_commute(self):
        assert symplectic_product(encode("XX"), encode("ZZ")) == 0

    def test_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_product(encode("X"), encode("XX"))

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_bilinear_alternating(self, k, data):
        def rand_pauli():
            return PauliString(
                k,
                data.draw(st.integers(0, (1 << k) - 1)),
                data.draw(st.integers(0, (1 << k) - 1)),
            )

        p, q, r = rand_pauli(), rand_pauli(), rand_pauli()
        assert symplectic_product(p, q) == symplectic_product(q, p)
        assert symplectic_product(p, p) == 0
        assert (
            symplectic_product(p ^ q, r)
            == (symplectic_product(p, r) + symplectic_product(q, r)) % 2
        )

    @given(st.text(alphabet="IXYZ", min_size=1, max_size=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_matrix_commutator(self, a, data):
        b = data.draw(st.text(alphabet="IXYZ", min_size=len(a), max_size=len(a)))
        ma, mb = matrix_of(a), matrix_of(b)
        commute = np.allclose(ma @ mb, mb @ ma)
        assert symplectic_product(encode(a), encode(b)) == (0 if commute else 1)


class TestMultiply:
    def test_xx_yy_zz(self):
        out = multiply([encode("XX"), encode("YY"), encode("ZZ")])
        assert out.phase == -1
        assert decode(out.body) == "II"

    def test_singleton(self):
        out = multiply([encode("XYZ")])
        assert out.phase == 1 and decode(out.body) == "XYZ"

    def test_involution(self):
        out = multiply([encode("X"), encode("X")])
        assert out.phase == 1 and decode(out.body) == "I"

    @given(st.lists(st.text(alphabet="IXYZ", min_size=2, max_size=2), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_matrix_oracle(self, words):
        out = multiply([encode(w) for w in words])
        product = np.eye(4, dtype=complex)
        for w in words:
            product = product @ matrix_of(w)
        assert np.allclose(product, out.phase * matrix_of(decode(out.body)))

    @given(st.lists(st.text(alphabet="IXYZ", min_size=3, max_size=3), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_body_is_gf2_sum(self, words):
        out = multiply([encode(w) for w in words])
        acc = PauliString(3, 0, 0)
        for w in words:
            acc = acc ^ encode(w)
        assert out.body == acc

    @pytest.mark.parametrize("pair", [a + b for a in "IXYZ" for b in "IXYZ"])
    def test_letter_pairs_match_table(self, pair):
        out = multiply([encode(pair[0]), encode(pair[1])])
        assert (out.phase_power, decode(out.body)) == table_multiply([pair[0], pair[1]])

    def test_random_products_match_table(self):
        rng = random.Random(29)
        for _ in range(500):
            k = rng.randint(1, 8)
            words = ["".join(rng.choice("IXYZ") for _ in range(k)) for _ in range(rng.randint(1, 6))]
            out = multiply([encode(w) for w in words])
            assert (out.phase_power, decode(out.body)) == table_multiply(words)

    def test_sign_raises_on_imaginary(self):
        out = multiply([encode("X"), encode("Y")])  # iZ
        with pytest.raises(ValueError):
            out.sign


class TestVerifyAssignment:
    def test_square_all_identity_valid_not_magic(self, square):
        h = square.hypergraph
        a = MagicAssignment.from_mapping(h, {str(v): "II" for v in range(1, 10)})
        rep = verify_assignment(h, a)
        assert rep.valid and not rep.magic and rep.negatives == 0

    def test_published_square(self, square):
        rep = verify_assignment(square.hypergraph, square.assignment)
        assert rep.valid and rep.magic and rep.negatives == 1

    def test_published_ms3_27b(self, entries):
        e = entries["MS3-27b"]
        rep = verify_assignment(e.hypergraph, e.assignment)
        assert rep.valid and rep.magic

    def test_violations_pinpoint(self, square):
        h = square.hypergraph
        mapping = square.assignment.to_mapping()
        mapping["1"] = "ZI"  # breaks commutation and products in row 1 / col 1
        a = MagicAssignment.from_mapping(h, mapping)
        rep = verify_assignment(h, a)
        assert not rep.valid
        kinds = {v[0] for v in rep.violations}
        assert "noncommuting" in kinds or "product_not_identity" in kinds
        edges_hit = {v[1] for v in rep.violations}
        assert edges_hit <= {1, 4}  # row 1 and column 1 of the grid

    def test_context_signs_match_reverification(self, entries):
        for name in ["MS3-29", "MS5-26", "MS4-21b", "MS3-27b", "MS6-35"]:
            e = entries[name]
            rep = verify_assignment(e.hypergraph, e.assignment)
            assert rep.context_signs == e.assignment.context_signs

    def test_missing_vertex_rejected(self, square):
        with pytest.raises(ValueError):
            MagicAssignment.from_mapping(square.hypergraph, {"1": "XI"})

    def test_mixed_qubit_counts_rejected(self, square):
        mapping = square.assignment.to_mapping()
        mapping["1"] = "XII"
        with pytest.raises(ValueError):
            MagicAssignment.from_mapping(square.hypergraph, mapping)


def test_sign_flip_parity_invariance(entries):
    """Negating one observable flips the sign of each containing context;
    even degrees keep the negative-count parity."""
    rng = random.Random(37)
    for name in ["square", "pentagram", "MS3-27b"]:
        e = entries[name]
        h = e.hypergraph
        c = e.assignment.context_signs
        M = incidence_matrix(h)
        for _ in range(100):
            v = rng.randrange(h.vertex_count)
            flipped = c ^ BitVector(h.num_edges, M.rows[v])
            assert flipped.weight() % 2 == c.weight() % 2


def test_gram_matrix_of_published(entries):
    from magicsets.gf2 import rank

    e = entries["MS4-21b"]
    g = gram_matrix_of(e.assignment.strings)
    assert g.rows == tuple(g.column(j).bits for j in range(g.cols))  # symmetric
    assert all(g.entry(i, i) == 0 for i in range(g.num_rows))
    assert rank(g) == 8
