"""Exceptions shared across the package, the input and output bounds they
enforce (`DEFAULT_CAP`, `MAX_INT_DIGITS`, `REPORT_INT_DIGITS`), and two
readers of input values: `brief`, which keeps the values error messages
echo short, and `_int_list`.

The bounds and readers live here, in a module with no other msolv import,
because the CLI front door reads them before it knows which experiment
runs, and the group DSL and the experiments read them too; those, and
every library module, are imported only by a run that uses them.
"""

import math

# most elements a closure enumerates unless its caller passes a cap
DEFAULT_CAP = 2_000_000

# most digits an integer of the group DSL, of a word or of an integer flag
# may have: int() refuses past sys.get_int_max_str_digits() (4300 by
# default) with a ValueError, so a longer token is refused first
MAX_INT_DIGITS = 1000

# most decimal digits an integer in a report may have: Python refuses str()
# on a longer int by default, and a report prints ints past 2^53 as
# strings.  A constant, not sys.get_int_max_str_digits(), so which runs are
# refused does not depend on the environment.
REPORT_INT_DIGITS = 4300


def _int_list(value) -> list:
    """Accept either a JSON list of ints or a comma-separated string."""
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(s) for s in str(value).split(",") if s.strip()]


def brief(value) -> str:
    """repr(value) for an error message, or, for a value past 60 characters
    (a str by its own length, anything else by its repr's), a short
    stand-in: an int by its digit count, anything else by the first 40
    characters of its repr and that repr's length.  Never thousands of
    digits."""
    if isinstance(value, int) and value.bit_length() > 180:
        digits = int(value.bit_length() * math.log10(2)) + 1  # or one fewer
        digits -= abs(value) < 10 ** (digits - 1)
        return f"an integer of {digits} digits"
    text = repr(value)
    if len(value if isinstance(value, str) else text) <= 60:
        return text
    return f"{text[:40]}... ({len(text)} characters)"


class MsolvError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MsolvError):
    """Matrix/vector shapes are incompatible for the requested operation."""


class RingMismatch(MsolvError):
    """Operands live over different moduli or coefficient rings."""


class MixedVariant(MsolvError):
    """Group elements of incompatible kinds (or degrees/moduli) were combined."""


class CapExceeded(MsolvError):
    """A closure enumeration grew past its configured cap, or a group whose
    order is known in advance was refused before any enumeration.

    `reached` is a lower bound on the order, or, with `predicted`, the
    predicted order itself.
    """

    def __init__(self, cap: int, reached: int, predicted: bool = False):
        if predicted:
            msg = f"predicted order {brief(reached)} exceeds cap {cap}; nothing was enumerated"
        else:
            msg = f"closure exceeded cap {cap} (at least {reached} elements)"
        super().__init__(msg)
        self.cap = cap
        self.reached = reached


class IndexOutOfRange(MsolvError):
    """An element or generator index does not exist in the group."""


class NotNormal(MsolvError):
    """The given subgroup is not normal in its parent."""


class NotSurjective(MsolvError):
    """The given homomorphism is not surjective where surjectivity is required."""


class NotHomomorphism(MsolvError):
    """Generator images do not extend to a homomorphism."""


class TooLarge(MsolvError):
    """Input exceeds the documented size bound of the algorithm."""


class BadGeneratorIndex(MsolvError):
    """A free-word letter refers to a generator outside 1..rank."""


class WordTooLong(MsolvError):
    """A free word exceeds the documented length cap."""


class RelatorNotInKernel(MsolvError):
    """A claimed relator does not map to the identity in the quotient."""


class LevelMismatch(MsolvError):
    """A tower level is absent or does not divide as required."""


class PreconditionViolated(MsolvError):
    """An arithmetic precondition of an experiment does not hold."""


class VerdictFailed(MsolvError):
    """A mathematical check failed; the message is the witness."""


class ParseError(MsolvError):
    """Group-spec text could not be parsed.

    Carries 1-based line and column of the offending position.
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
