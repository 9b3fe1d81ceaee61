"""The six 3-dimensional unimodular Lie algebras in a diagonal bracket frame.

Each algebra is carried as the triple (l1, l2, l3) of bracket coefficients in
a frame V1, V2, V3 where [Vi, Vj] = sum_k eps_ijk * l_k * Vk, with eps the
Levi-Civita symbol.  Scaling and reordering always brings the coefficients to
{-2, 0, 2}, and the admissible triples are in bijection with the groups:

    SO3 (2,2,2)   SL2 (2,2,-2)   E2 (2,2,0)
    E11 (2,-2,0)  H3 (2,0,0)     R3 (0,0,0)

A basis with these bracket relations is called a Milnor frame.  Basis-change
matrices act by columns: the new frame vector X_i has V-coordinates M[:, i].
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "UnimodularGroup", "GROUPS", "SO3", "SL2", "E2", "E11", "H3", "R3",
    "group_from_name", "as_group", "structure_constants", "bracket",
    "check_milnor_frame", "check_milnor_frame_many", "rotation_so3",
    "random_rotation", "sl2_frame_change", "e2_frame_change", "e11_frame_change",
    "h3_frame_change",
]

_LAMBDAS = {
    "SO3": (2.0, 2.0, 2.0),
    "SL2": (2.0, 2.0, -2.0),
    "E2": (2.0, 2.0, 0.0),
    "E11": (2.0, -2.0, 0.0),
    "H3": (2.0, 0.0, 0.0),
    "R3": (0.0, 0.0, 0.0),
}

_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI_CIVITA[_i, _j, _k] = 1.0
    _LEVI_CIVITA[_j, _i, _k] = -1.0


@dataclass(frozen=True)
class UnimodularGroup:
    """One of the six groups, identified by its bracket-coefficient triple."""

    name: str
    lambdas: tuple[float, float, float]

    def __post_init__(self):
        expected = _LAMBDAS.get(self.name)
        if expected is None:
            raise ValueError(f"unknown group name {self.name!r}; "
                             f"expected one of {sorted(_LAMBDAS)}")
        if tuple(self.lambdas) != expected:
            raise ValueError(f"group {self.name} requires bracket coefficients "
                             f"{expected}, got {self.lambdas}")

    def __str__(self):
        return self.name


SO3 = UnimodularGroup("SO3", _LAMBDAS["SO3"])
SL2 = UnimodularGroup("SL2", _LAMBDAS["SL2"])
E2 = UnimodularGroup("E2", _LAMBDAS["E2"])
E11 = UnimodularGroup("E11", _LAMBDAS["E11"])
H3 = UnimodularGroup("H3", _LAMBDAS["H3"])
R3 = UnimodularGroup("R3", _LAMBDAS["R3"])

GROUPS = {g.name: g for g in (SO3, SL2, E2, E11, H3, R3)}


def group_from_name(name: str) -> UnimodularGroup:
    """Look up a group by case-insensitive name ("so3", "sl2", ...)."""
    key = str(name).strip().upper()
    if key not in GROUPS:
        raise ValueError(f"unknown group {name!r}; expected one of "
                         f"{sorted(n.lower() for n in GROUPS)}")
    return GROUPS[key]


def as_group(group) -> UnimodularGroup:
    """Accept either a UnimodularGroup or a name string."""
    if isinstance(group, UnimodularGroup):
        return group
    return group_from_name(group)


@lru_cache(maxsize=None)
def structure_constants(group: UnimodularGroup) -> np.ndarray:
    """Structure constants C[i,j,k] = eps_ijk * l_k of the group's frame.

    [Vi, Vj] = sum_k C[i,j,k] Vk.  Antisymmetric in (i, j); satisfies the
    Jacobi identity exactly (small-integer arithmetic).
    """
    group = as_group(group)
    C = _LEVI_CIVITA * np.asarray(group.lambdas)
    C.setflags(write=False)
    return C


def bracket(sc: np.ndarray, u, v) -> np.ndarray:
    """Bracket of two algebra elements given by frame coordinates.

    Returns w with w_k = sum_{i,j} u_i v_j C[i,j,k]; bilinear and
    antisymmetric.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.einsum("i,j,ijk->k", u, v, sc)


# entrywise tolerance of the bracket check in check_milnor_frame
FRAME_TOL = 1e-10


def _floats(x, what: str) -> np.ndarray:
    """x as a float array, the conversion of the array readers; raises
    ValueError naming `what` where an entry is no number in the float range."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be numbers in the float range, got "
                         f"{x!r}") from None


def check_milnor_frame(group, M) -> bool:
    """True iff the columns of M form another frame with the same brackets.

    The candidate frame is X_i = sum_j M[j,i] V_j; the check is
    [X_i, X_j] = sum_k eps_ijk l_k X_k for all i < j, entrywise within
    FRAME_TOL.  `check_milnor_frame_many` on one lane.

    Raises ValueError when M is singular (not a basis at all).
    """
    M = _floats(M, "basis change entries")
    if M.shape != (3, 3):
        raise ValueError(f"basis change must be 3x3, got shape {M.shape}")
    return bool(check_milnor_frame_many(group, M[None])[0])


# the pairs i < j and, for each, the k with eps_ijk != 0
_I, _J, _K = [0, 0, 1], [1, 2, 2], [2, 1, 0]


def _flat(vectors, components) -> np.ndarray:
    """Indices into a flattened M of X_v[c] = M[c, v]: a row per pair's
    frame vector v, a column per component c."""
    return 3 * np.asarray(components)[None, :] + np.asarray(vectors)[:, None]


# the components c+1 and c+2 (mod 3) of each component c
_C1, _C2 = [1, 2, 0], [2, 0, 1]
_I1, _J2 = _flat(_I, _C1), _flat(_J, _C2)
_I2, _J1 = _flat(_I, _C2), _flat(_J, _C1)
_KC = _flat(_K, range(3))


def check_milnor_frame_many(group, Ms) -> np.ndarray:
    """`check_milnor_frame` of each basis change of the stack Ms (N, 3, 3),
    as a boolean array.  [X_i, X_j] is l * (X_i x X_j) entrywise and the
    right side the one term C[i,j,k] X_k, so every lane is checked with
    the same float operations, whatever the stack.  The cross product is
    written out as `np.cross` computes it, X_i[c+1] X_j[c+2] - X_i[c+2]
    X_j[c+1], without its per-call set-up.

    Raises ValueError when any M is singular.
    """
    group = as_group(group)
    M = _floats(Ms, "basis change entries")
    if M.ndim != 3 or M.shape[1:] != (3, 3):
        raise ValueError(f"expected a stack of 3x3 basis changes, got shape "
                         f"{M.shape}")
    if (np.abs(np.linalg.det(M))
            <= 1e-12 * np.abs(M).max(axis=(-2, -1)) ** 3).any():
        raise ValueError("singular matrix is not a valid basis change")
    flat = M.reshape(-1, 9)
    cross = flat[:, _I1] * flat[:, _J2] - flat[:, _I2] * flat[:, _J1]
    lhs = np.asarray(group.lambdas) * cross
    rhs = structure_constants(group)[_I, _J, _K][:, None] * flat[:, _KC]
    return np.abs(lhs - rhs).max(axis=(-2, -1)) <= FRAME_TOL


# ---------------------------------------------------------------------------
# Frame-change families.  Each constructor returns a basis-change matrix that
# preserves the bracket relations of its group (columns are the new frame).
# ---------------------------------------------------------------------------

def rotation_so3(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` about `axis` (Rodrigues); preserves the SO3 frame."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random rotation from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def sl2_frame_change(theta: float, phi: float, s: float = 0.0,
                     a12_sign: int = 1, branch: int = 1) -> np.ndarray:
    """General SL2 frame change b(theta) d(phi) a.

    b rotates the (1,2)-plane, d is a hyperbolic boost of the (2,3)-plane,
    and a has rows ((0, a12, a13), (u, 0, 0), (0, -u*a13, -u*a12)) with
    a12 = a12_sign*cosh(s), a13 = sinh(s) (so a12^2 - a13^2 = 1) and the
    branch sign u = +-1.
    """
    ct, st = np.cos(theta), np.sin(theta)
    ch, sh = np.cosh(phi), np.sinh(phi)
    b = np.array([[ct, -st, 0.0], [st, ct, 0.0], [0.0, 0.0, 1.0]])
    d = np.array([[1.0, 0.0, 0.0], [0.0, ch, -sh], [0.0, -sh, ch]])
    a12 = float(a12_sign) * np.cosh(s)
    a13 = np.sinh(s)
    u = float(branch)
    a = np.array([[0.0, a12, a13], [u, 0.0, 0.0], [0.0, -u * a13, -u * a12]])
    return b @ d @ a


def e2_frame_change(a11: float, a12: float, a13: float = 0.0,
                    a23: float = 0.0, upper: bool = True) -> np.ndarray:
    """E2 frame change: third row (0, 0, +-1), planar block rotation-scaling.

    Upper branch: rows ((a11, a12, a13), (-a12, a11, a23), (0, 0, 1));
    lower branch: rows ((a11, a12, a13), (a12, -a11, a23), (0, 0, -1)).
    Nonsingular whenever a11^2 + a12^2 > 0.
    """
    if upper:
        return np.array([[a11, a12, a13], [-a12, a11, a23], [0.0, 0.0, 1.0]])
    return np.array([[a11, a12, a13], [a12, -a11, a23], [0.0, 0.0, -1.0]])


def e11_frame_change(a11: float, a12: float, a13: float = 0.0,
                     a23: float = 0.0, upper: bool = True) -> np.ndarray:
    """E11 frame change: hyperbolic planar block, third row (0, 0, +-1).

    Upper branch: rows ((a11, a12, a13), (a12, a11, a23), (0, 0, 1));
    lower branch: rows ((a11, a12, a13), (-a12, -a11, a23), (0, 0, -1)).
    Nonsingular whenever a11^2 != a12^2.
    """
    if upper:
        return np.array([[a11, a12, a13], [a12, a11, a23], [0.0, 0.0, 1.0]])
    return np.array([[a11, a12, a13], [-a12, -a11, a23], [0.0, 0.0, -1.0]])


def h3_frame_change(a22: float, a23: float, a32: float, a33: float,
                    a12: float = 0.0, a13: float = 0.0) -> np.ndarray:
    """H3 frame change: first column (det2, 0, 0) with det2 the lower block
    determinant a22*a33 - a23*a32; the (1,2) and (1,3) entries are free."""
    det2 = a22 * a33 - a23 * a32
    return np.array([[det2, a12, a13], [0.0, a22, a23], [0.0, a32, a33]])
