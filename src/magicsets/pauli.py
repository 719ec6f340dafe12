"""Pauli observables in binary symplectic form, with phase-tracked products.

Encoding convention (per coordinate pair (x_i, z_i)):

    I = (0, 0),  X = (1, 0),  Y = (0, 1),  Z = (1, 1)

so a k-qubit string packs as (x_1..x_k | z_1..z_k); IXYXZ becomes
(0,1,0,1,1 | 0,0,1,0,1).  Vector addition multiplies operators up to
phase; the symplectic product x1.z2 + z1.x2 is 0 for commuting pairs and
1 for anticommuting pairs.  Phases are tracked separately, as powers of i,
using the right-handed single-qubit table X.Y = iZ, Y.Z = iX, Z.X = iY.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .gf2 import BitVector
from .hypergraph import Hypergraph, _integer

#: Largest qubit count accepted by encode(); every bundled instance needs <= 6.
MAX_QUBITS = 32

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (0, 1), "Z": (1, 1)}
_XZ_TO_LETTER = {v: k for k, v in _LETTER_TO_XZ.items()}


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli observable, phase-free (the bare +1 operator)."""

    qubits: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        if self.qubits < 0:
            raise ValueError("negative qubit count")
        for part in (self.x_bits, self.z_bits):
            if part < 0 or part >> self.qubits:
                raise ValueError("symplectic bits outside qubit count")

    @property
    def symplectic(self) -> BitVector:
        """The 2k-vector (x part | z part)."""
        return BitVector(2 * self.qubits, self.x_bits | (self.z_bits << self.qubits))

    @classmethod
    def from_symplectic(cls, v: BitVector) -> "PauliString":
        if v.length % 2:
            raise ValueError("symplectic vector length must be even")
        k = v.length // 2
        mask = (1 << k) - 1
        return cls(k, v.bits & mask, v.bits >> k)

    def letter(self, i: int) -> str:
        return _XZ_TO_LETTER[(self.x_bits >> i) & 1, (self.z_bits >> i) & 1]

    def __str__(self) -> str:
        return decode(self)

    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def __xor__(self, other: "PauliString") -> "PauliString":
        """Phase-free product: coordinatewise GF(2) sum."""
        if self.qubits != other.qubits:
            raise ValueError("qubit-count mismatch")
        return PauliString(self.qubits, self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits)


@dataclass(frozen=True)
class SignedPauli:
    """A Pauli operator with an explicit phase i**phase_power."""

    phase_power: int  # modulo 4
    body: PauliString

    @property
    def phase(self) -> complex:
        return (1, 1j, -1, -1j)[self.phase_power % 4]

    @property
    def sign(self) -> int:
        """+1 or -1; raises when the phase is imaginary."""
        p = self.phase_power % 4
        if p == 0:
            return 1
        if p == 2:
            return -1
        raise ValueError("phase is imaginary, not a sign")


def encode(letters: str) -> PauliString:
    """Letter form over {I,X,Y,Z} to symplectic form."""
    if not letters:
        raise ValueError("empty Pauli string")
    if len(letters) > MAX_QUBITS:
        raise ValueError(f"more than {MAX_QUBITS} qubits")
    x = z = 0
    for i, c in enumerate(letters):
        try:
            xi, zi = _LETTER_TO_XZ[c]
        except KeyError:
            raise ValueError(f"invalid Pauli letter {c!r}") from None
        x |= xi << i
        z |= zi << i
    return PauliString(len(letters), x, z)


def decode(p: PauliString) -> str:
    return "".join(p.letter(i) for i in range(p.qubits))


def symplectic_product(p: PauliString, q: PauliString) -> int:
    """0 iff the operators commute, 1 iff they anticommute."""
    if p.qubits != q.qubits:
        raise ValueError("qubit-count mismatch")
    return ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) & 1


def multiply(ps: Sequence[PauliString]) -> SignedPauli:
    """Exact phase-tracked product of the strings, left to right."""
    if not ps:
        raise ValueError("empty product")
    k = ps[0].qubits
    acc = ps[0]
    power = 0
    for p in ps[1:]:
        if p.qubits != k:
            raise ValueError("qubit-count mismatch")
        # Letter masks per qubit; a cyclic pair (XY, YZ, ZX) gives i, the
        # reversed pair -i = i^3, equal letters or an identity 1.
        ax, ay, az = acc.x_bits & ~acc.z_bits, acc.z_bits & ~acc.x_bits, acc.x_bits & acc.z_bits
        bx, by, bz = p.x_bits & ~p.z_bits, p.z_bits & ~p.x_bits, p.x_bits & p.z_bits
        cyclic = (ax & by) | (ay & bz) | (az & bx)
        anticyclic = (ay & bx) | (az & by) | (ax & bz)
        power += cyclic.bit_count() + 3 * anticyclic.bit_count()
        acc = acc ^ p
    return SignedPauli(power % 4, acc)


@dataclass(frozen=True)
class MagicAssignment:
    """A map vertex -> PauliString for every vertex of a hypergraph.

    ``context_signs`` holds the derived sign vector c: bit i is 0 when the
    product over edge i is +identity and 1 when it is -identity.  It is
    None when some context product is not +/-identity (such an assignment
    cannot be valid; verify_assignment pinpoints why).
    """

    hypergraph: Hypergraph
    strings: tuple[PauliString, ...]
    context_signs: BitVector | None

    @classmethod
    def build(cls, h: Hypergraph, strings: Sequence[PauliString]) -> "MagicAssignment":
        if len(strings) != h.vertex_count:
            raise ValueError(
                f"assignment covers {len(strings)} vertices, hypergraph has {h.vertex_count}"
            )
        ks = {p.qubits for p in strings}
        if len(ks) > 1:
            raise ValueError(f"mixed qubit counts {sorted(ks)}")
        signs = 0
        ok = True
        for j, e in enumerate(h.edges):
            if not e:
                continue  # empty product is +identity
            prod = multiply([strings[v - 1] for v in e])
            if not prod.body.is_identity() or prod.phase_power % 2:
                ok = False
                break
            if prod.phase_power % 4 == 2:
                signs |= 1 << j
        return cls(h, tuple(strings), BitVector(len(h.edges), signs) if ok else None)

    @classmethod
    def from_mapping(cls, h: Hypergraph, mapping: Mapping[int, str] | Mapping[str, str]) -> "MagicAssignment":
        """Build from {vertex index: letter string}, indices 1-based (int or str)."""
        if not isinstance(mapping, Mapping):
            raise ValueError(f"an assignment must map vertex indices to Pauli strings, got {mapping!r}")
        by_index = {int(k): v for k, v in mapping.items()}
        missing = [v for v in range(1, h.vertex_count + 1) if v not in by_index]
        if missing:
            raise ValueError(f"assignment missing vertices {missing}")
        for v, letters in by_index.items():
            if not isinstance(letters, str):
                raise ValueError(f"vertex {v} must be assigned a Pauli string, got {letters!r}")
        return cls.build(h, [encode(by_index[v]) for v in range(1, h.vertex_count + 1)])

    def to_mapping(self) -> dict[str, str]:
        return {str(i + 1): decode(p) for i, p in enumerate(self.strings)}

    @property
    def qubits(self) -> int:
        return self.strings[0].qubits if self.strings else 0

    def negatives(self) -> int:
        if self.context_signs is None:
            raise ValueError("context products are not all +/-identity")
        return self.context_signs.weight()


@dataclass(frozen=True)
class AssignmentReport:
    valid: bool
    magic: bool
    context_signs: BitVector | None
    negatives: int | None
    violations: tuple[tuple, ...]


def verify_assignment(h: Hypergraph, a: MagicAssignment) -> AssignmentReport:
    """Check magic-assignment conditions and report failures instead of raising.

    valid: all within-context pairs commute and every context product is
    +/-identity.  magic: valid with an odd number of negative contexts.
    Violations carry ("noncommuting", edge, u, v) or
    ("product_not_identity", edge, letters, phase_power) entries.
    """
    if a.hypergraph is not h and a.hypergraph != h:
        raise ValueError("assignment bound to a different hypergraph")
    violations: list[tuple] = []
    signs = 0
    products_ok = True
    for j, e in enumerate(h.edges):
        uniq = sorted(set(e))
        for ai in range(len(uniq)):
            for bi in range(ai + 1, len(uniq)):
                u, v = uniq[ai], uniq[bi]
                if symplectic_product(a.strings[u - 1], a.strings[v - 1]):
                    violations.append(("noncommuting", j + 1, u, v))
        if not e:
            continue  # empty product is +identity
        prod = multiply([a.strings[v - 1] for v in e])
        if not prod.body.is_identity() or prod.phase_power % 2:
            violations.append(("product_not_identity", j + 1, decode(prod.body), prod.phase_power))
            products_ok = False
        elif prod.phase_power % 4 == 2:
            signs |= 1 << j
    valid = not violations
    c = BitVector(len(h.edges), signs) if products_ok else None
    negatives = c.weight() if c is not None else None
    magic = valid and negatives is not None and negatives % 2 == 1
    return AssignmentReport(valid, magic, c, negatives, tuple(violations))


def gram_matrix_of(strings: Sequence[PauliString]):
    """Pairwise commutation matrix of an assignment (0 commute / 1 anticommute)."""
    from .gf2 import BitMatrix

    m = len(strings)
    rows = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if symplectic_product(strings[i], strings[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BitMatrix(m, tuple(rows))


__all__ = [
    "MAX_QUBITS",
    "PauliString",
    "SignedPauli",
    "MagicAssignment",
    "AssignmentReport",
    "encode",
    "decode",
    "symplectic_product",
    "multiply",
    "verify_assignment",
    "gram_matrix_of",
]
