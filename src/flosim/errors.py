"""The package's failure table: every tolerance, and the exception types
with their exit codes.

Each threshold that decides what counts as exact, absent, certain,
Hermitian or a pair is stated once below, with its reason; a module
imports the names it reads.  Every error raised by the library derives
from FlosimError, so callers (and the command line front end) can report
failures as a single greppable line of the form ``ClassName: message``,
and exit with the class's exit_code.
"""

ORTHO_TOL = 1e-10  # largest ||Phi^H Phi - 1||_F of a state's orbital columns
UNITARY_TOL = 1e-10  # largest ||V^H V - 1||_F of a one-body unitary
MODE_NORM_TOL = ORTHO_TOL / 4  # a split child's Gram error is about twice its mode's norm error
ORTHOGONAL_TOL = 1e-10  # largest |<kappa|lambda>| for two measured modes
SPAN_TOL = 1e-9  # largest distance of rotate_in_first's target from the filled span
ABSENT_TOL = 1e-12  # a span component or leaf scale at or below this is absent
PROB_FLOOR = 1e-12  # an outcome below this probability cannot be forced or steered into
UNIT_ROUND = 2.0**-53  # u, the unit roundoff of a float64
PRUNE_TOL = 1e-12  # a term of weight |c a| at or below this is pruned
NORM_TOL = 1e-13  # a carried norm squared whose error bound passes this times n is measured again
PASS_ROUND = 4e-15  # the rounding a pass or a split may leave in n, per unit of _mass
CERTAINTY_TOL = 1e-9  # an outcome within this of probability 1 is certain
RANK_TOL = 1e-10  # orthonormalize refuses a smallest singular value at or below this
HERMITIAN_TOL = 1e-10  # largest ||b - b^H||_F of a generator (linalg.hermitian_fault)
DENSITY_HERMITIAN_TOL = 1e-9  # largest ||rho - rho^H||_F of a FockDensity
ANTISYM_TOL = 1e-10  # largest ||w + w^T||_F of an antisymmetric matrix
PAIR_THRESHOLD = 1e-9  # a pair modulus at or below this counts toward no Slater number
PAIR_REL_TOL = 1e-12  # pairs at or below this times max(1, largest) end (linalg.pair_floor)
TOPSPACE_TOL = 1e-10  # singular values within this of the top one, relative, are its space
CLOSED_FORM_FLOOR = 1e-15  # a closed form whose f_S f_C is below this is 0
ORACLE_TOL = 1e-8  # the judge's largest probability deviation, and 1 - its least fidelity
RENORMALIZE_WARN = 1e-6  # a loaded mode vector off unit norm by more than this warns
ZERO_STATE_TOL = 1e-12  # a state file's sum at or below this norm is the zero state


class FlosimError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1  # the command line's exit status, unless a subclass sets its own


class BadDimensions(FlosimError):
    """A matrix or vector has an incompatible or invalid shape."""


class DimensionMismatch(FlosimError):
    """Two objects refer to different mode counts."""


class NonSquare(FlosimError):
    """A square matrix was required."""


class NotHermitian(FlosimError):
    """A Hermitian matrix was required."""


class NotUnitary(FlosimError):
    """A unitary matrix was required."""


class NotAntisymmetric(FlosimError):
    """An antisymmetric (skew-symmetric) matrix was required."""


class OddDimension(FlosimError):
    """An even-dimensional matrix was required."""


class RankDeficient(FlosimError):
    """Input columns are (numerically) linearly dependent."""


class NotInSpan(FlosimError):
    """A vector was required to lie in the filled span."""


class ImpossibleOutcome(FlosimError):
    """A forced measurement outcome has probability below threshold."""


class BadIndexSet(FlosimError):
    """An occupation index set is not strictly increasing or out of range."""


class IndexOutOfRange(FlosimError):
    """A mode or orbital index lies outside its allowed range."""


class ModesNotOrthogonal(FlosimError):
    """Two measured mode vectors are not orthogonal."""


class TermCapExceeded(FlosimError):
    """A determinant sum grew past its term cap."""
    exit_code = 4  # the term cap hit


class WrongParticleNumber(FlosimError):
    """An operation required a specific electron count."""


class BadContext(FlosimError):
    """The state is not in the reduction's expected standard form."""


class TooManyModes(FlosimError):
    """The dense representation cap was exceeded."""


class ZeroVector(FlosimError):
    """A nonzero vector was required."""


class BadConfig(FlosimError):
    """A configuration value is invalid."""


class ParityGroupingUnsupported(FlosimError):
    """The parity outcome grouping cannot be simulated branch-exactly."""
    exit_code = 2  # the parity grouping rejected


class NoAdmissibleBranch(FlosimError):
    """No branch is admissible; numbers do not add up to a valid choice."""


class ParseError(FlosimError):
    """A circuit or state document could not be parsed."""


class OracleCheckFailed(FlosimError):
    """The dense cross-check disagreed with the fast path."""
    exit_code = 3  # a numerical check failure
