"""Cyclic time-frequency plane: shifts, separable lattices and their adjoints.

Signals are complex vectors indexed by ``Z_L``.  A phase point ``z = (x, xi)``
acts through the unitary time-frequency shift

    (shift f)(t) = exp(2*pi*i*xi*t/L) * f((t - x) mod L),

i.e. modulation applied after translation.  Two shifts compose up to a
unimodular phase,

    shift(lam) o shift(mu) = exp(-2*pi*i*lam_1*mu_2/L) * shift(lam + mu),

and every phase is :func:`root_of_unity` of an integer exponent reduced mod
L, so that group-law identities hold to the last ulp.

A separable lattice ``a*Z_L x b*Z_L`` requires ``a | L`` and ``b | L`` (this
guarantees a subgroup and makes the adjoint formula exact).  Its adjoint is
``(L/b)*Z_L x (L/a)*Z_L``: exactly the phase points whose shifts commute with
every lattice shift.

A :class:`TwistedSequence` is a complex array on a lattice's grid: the
coefficients of the analysis map and the input of the synthesis map, and
the elements of the lattice's twisted-convolution algebra
(:mod:`gaborkit.twisted`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LatticeError, ShapeMismatchError

#: A phase point: (time shift, frequency shift), residues mod L.
PhasePoint = tuple[int, int]


@dataclass(frozen=True)
class FiniteModel:
    """The signal space C^L over the cyclic group Z_L.

    The inner product is ``<f, h> = sum_t f(t) * conj(h(t))``, conjugate
    linear in the second argument.
    """

    L: int

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or self.L < 2:
            raise LatticeError(f"signal length must be an integer >= 2, got {self.L!r}")

    def reduce(self, z) -> PhasePoint:
        """Reduce a phase point mod L."""
        x, xi = z
        return (int(x) % self.L, int(xi) % self.L)

    def inner(self, f, h) -> complex:
        """<f, h>, conjugate linear in the second argument."""
        return complex(np.vdot(np.asarray(h), np.asarray(f)))


def _check_length(L, f, what="signal"):
    """``f`` as a contiguous complex vector, refused unless its length is L."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (L,):
        raise ShapeMismatchError(f"expected a length-{L} {what}, got shape {f.shape}")
    return np.ascontiguousarray(f)


def _step_fault(L, a, b):
    """``(name, why)`` for the first of ``a``, ``b`` that cannot step a
    lattice on Z_L; None when both can."""
    for name, step in (("a", a), ("b", b)):
        if not isinstance(step, (int, np.integer)) or step < 1:
            return name, f"must be a positive integer, got {step!r}"
        if L % step != 0:
            return name, f"{step} does not divide L={L}"
    return None


def root_of_unity(expo, L):
    """``exp(2*pi*i*expo/L)`` from the integer exponent ``expo`` reduced mod L:
    equal exponents mod L give bit-identical phases."""
    return np.exp(2j * np.pi * (expo % L) / L)


def tf_shift(model: FiniteModel, z, f):
    """Apply the time-frequency shift at ``z = (x, xi)`` to a signal.

    Returns ``g`` with ``g(t) = exp(2*pi*i*xi*t/L) * f((t - x) mod L)``.
    The map is unitary for every ``z``.
    """
    L = model.L
    f = _check_length(L, f)
    x, xi = model.reduce(z)
    return root_of_unity(xi * np.arange(L), L) * np.roll(f, x)


def shift_matrix(model: FiniteModel, z):
    """The L x L unitary matrix of the shift at ``z``."""
    L = model.L
    x, xi = model.reduce(z)
    t = np.arange(L)
    out = np.zeros((L, L), dtype=complex)
    out[t, (t - x) % L] = root_of_unity(xi * t, L)
    return out


def compose_shifts(model: FiniteModel, lam, mu):
    """Compose two shifts: returns ``(phase, lam + mu)`` such that
    ``shift(lam) o shift(mu) = phase * shift(lam + mu)`` exactly.

    The phase is ``exp(-2*pi*i*lam_1*mu_2/L)``, computed from the integer
    exponent ``-lam_1*mu_2`` so that cocycle identities (associativity of
    total phases) are exact.
    """
    L = model.L
    l1, l2 = model.reduce(lam)
    m1, m2 = model.reduce(mu)
    return complex(root_of_unity(-(l1 * m2), L)), ((l1 + m1) % L, (l2 + m2) % L)


def shifts_commute(model: FiniteModel, lam, mu) -> bool:
    """Whether shift(lam) and shift(mu) commute (phase-exactly)."""
    l1, l2 = model.reduce(lam)
    m1, m2 = model.reduce(mu)
    return (l1 * m2 - m1 * l2) % model.L == 0


@dataclass(frozen=True)
class SeparableLattice:
    """The subgroup ``a*Z_L x b*Z_L`` of the time-frequency plane Z_L x Z_L.

    ``a`` and ``b`` must divide ``L``.  The grid has ``L/a`` time rows and
    ``L/b`` frequency columns; grid index ``(k, l)`` is the phase point
    ``(k*a mod L, l*b mod L)``.  Flat indices follow C order, ``k*(L/b) + l``.
    """

    L: int
    a: int
    b: int

    def __post_init__(self):
        FiniteModel(self.L)  # the signal length's own check
        fault = _step_fault(self.L, self.a, self.b)
        if fault:
            raise LatticeError("lattice step %s: %s" % fault)

    @property
    def n_time(self) -> int:
        return self.L // self.a

    @property
    def n_freq(self) -> int:
        return self.L // self.b

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.n_time, self.n_freq)

    @property
    def cardinality(self) -> int:
        """Number of lattice points, L**2/(a*b)."""
        return self.n_time * self.n_freq

    @property
    def covolume(self) -> float:
        """s = a*b/L, the covolume in the normalization that pins the
        shift-series identity for the frame operator."""
        return self.a * self.b / self.L

    @property
    def redundancy(self) -> float:
        """L/(a*b); frames require redundancy >= 1."""
        return self.L / (self.a * self.b)

    def point(self, k, l) -> PhasePoint:
        return ((k * self.a) % self.L, (l * self.b) % self.L)

    def points(self) -> np.ndarray:
        """All lattice points in flat (C-order) grid order, shape (n, 2)."""
        k = np.repeat(np.arange(self.n_time), self.n_freq)
        l = np.tile(np.arange(self.n_freq), self.n_time)
        return np.stack([(k * self.a) % self.L, (l * self.b) % self.L], axis=1)

    def contains(self, z) -> bool:
        x, xi = int(z[0]) % self.L, int(z[1]) % self.L
        return x % self.a == 0 and xi % self.b == 0

    def adjoint(self) -> "SeparableLattice":
        """The lattice of phase points commuting with every point here:
        ``(L/b)*Z_L x (L/a)*Z_L``."""
        return SeparableLattice(self.L, self.L // self.b, self.L // self.a)

    @property
    def has_commuting_shifts(self) -> bool:
        """True when all shifts of this lattice mutually commute, which for
        separable lattices happens exactly when L divides a*b."""
        return (self.a * self.b) % self.L == 0

    @property
    def model(self) -> FiniteModel:
        return FiniteModel(self.L)


def adjoint_lattice(lattice: SeparableLattice) -> SeparableLattice:
    """Adjoint of a separable lattice (see :meth:`SeparableLattice.adjoint`)."""
    return lattice.adjoint()


@dataclass
class TwistedSequence:
    """A complex array on the grid of ``lattice``, shape (L/a, L/b): analysis
    coefficients, or an element of the lattice's twisted-convolution algebra."""

    values: np.ndarray
    lattice: SeparableLattice = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.lattice.grid_shape:
            raise ShapeMismatchError(
                f"sequence shape {self.values.shape} does not match lattice grid "
                f"{self.lattice.grid_shape}"
            )

    @classmethod
    def delta(cls, lattice) -> "TwistedSequence":
        """The algebra unit: 1 at (0, 0), else 0."""
        values = np.zeros(lattice.grid_shape, dtype=complex)
        values[0, 0] = 1.0
        return cls(values, lattice)

    @classmethod
    def point_mass(cls, lattice, k, l, weight=1.0) -> "TwistedSequence":
        values = np.zeros(lattice.grid_shape, dtype=complex)
        values[k % lattice.n_time, l % lattice.n_freq] = weight
        return cls(values, lattice)

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def norm1(self) -> float:
        return float(np.sum(np.abs(self.values)))

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))


#: The analysis coefficients' name for a grid sequence.
LatticeCoefficients = TwistedSequence
