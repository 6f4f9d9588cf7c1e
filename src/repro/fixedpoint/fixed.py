"""Q-format fixed-point numbers, scalar and vectorised.

A :class:`FixedFormat` describes a two's-complement Q-format:
``total_bits`` bits in all, of which ``frac_bits`` are fractional.
Raw values are plain Python ints (scalar path) or ``numpy.int64``
arrays (vector path); the format object interprets them.

The hardware models default to *saturating* arithmetic, which is what
the RTL implements. A ``strict=True`` flag on the helpers raises
:class:`~repro.errors.FixedPointOverflowError` instead, which the test
suite uses to prove the paper's chosen formats never saturate on the
evaluated workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from repro.errors import FixedPointFormatError, FixedPointOverflowError

#: Scalar or numpy array of raw fixed-point integers.
RawLike = Union[int, np.ndarray]


@dataclass(frozen=True)
class FixedFormat:
    """A two's-complement Q-format descriptor.

    Parameters
    ----------
    total_bits:
        Total width in bits, including the sign bit when ``signed``.
    frac_bits:
        Number of fractional bits. ``total_bits - frac_bits`` is the
        integer portion (including sign for signed formats).
    signed:
        Whether the format is two's-complement signed.
    """

    total_bits: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.total_bits <= 0 or self.total_bits > 63:
            raise FixedPointFormatError(
                f"total_bits must be in 1..63, got {self.total_bits}"
            )
        if self.frac_bits < 0 or self.frac_bits > self.total_bits:
            raise FixedPointFormatError(
                f"frac_bits must be in 0..total_bits, got {self.frac_bits}"
            )
        if self.signed and self.total_bits < 2:
            raise FixedPointFormatError("signed formats need at least 2 bits")

    @property
    def int_bits(self) -> int:
        """Bits in the integer portion (includes the sign bit if signed)."""
        return self.total_bits - self.frac_bits

    @property
    def scale(self) -> int:
        """The scaling factor ``2 ** frac_bits``."""
        return 1 << self.frac_bits

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer."""
        if self.signed:
            return -(1 << (self.total_bits - 1))
        return 0

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer."""
        if self.signed:
            return (1 << (self.total_bits - 1)) - 1
        return (1 << self.total_bits) - 1

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min / self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max / self.scale

    @property
    def resolution(self) -> float:
        """The value of one least-significant bit."""
        return 1.0 / self.scale

    def describe(self) -> str:
        """Human-readable Q-format name, e.g. ``Q9.22`` for signed 32-bit."""
        prefix = "Q" if self.signed else "UQ"
        int_part = self.int_bits - (1 if self.signed else 0)
        return f"{prefix}{int_part}.{self.frac_bits}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


#: The paper's 32-bit format with 10 integer bits (sign + 9) and 22
#: fractional bits, used for constants and general datapath values.
FLEXON_FORMAT = FixedFormat(total_bits=32, frac_bits=22, signed=True)

#: Truncated membrane-potential storage: theta == 1.0 keeps v in [0, 1),
#: so only 22 bits of fraction (plus sign to allow transient negatives
#: during inhibition) need to persist per neuron. This reproduces the
#: 32 -> 22 bits/neuron saving reported in Section IV-B1.
MEMBRANE_FORMAT = FixedFormat(total_bits=24, frac_bits=22, signed=True)


@dataclass
class SaturationStats:
    """Per-format accounting of non-strict saturation events.

    The RTL saturates silently; the paper's correctness argument rests
    on the chosen formats *never* saturating on the evaluated workloads
    (Section VI-A). These counters make that claim observable at run
    time instead of only assertable in strict mode: each time a
    non-strict saturate actually clips, the clipped element count is
    recorded against the format that clipped it.
    """

    #: Elements clipped, keyed by the format that clipped them.
    clipped: Dict[FixedFormat, int] = field(default_factory=dict)
    #: Total elements examined while accounting was active.
    checked: int = 0

    def record(self, fmt: FixedFormat, checked: int, clipped: int) -> None:
        self.checked += checked
        if clipped:
            self.clipped[fmt] = self.clipped.get(fmt, 0) + clipped

    @property
    def total_clipped(self) -> int:
        """Elements clipped across every format."""
        return sum(self.clipped.values())

    def merge(self, other: "SaturationStats") -> None:
        """Fold another stats object into this one."""
        self.checked += other.checked
        for fmt, count in other.clipped.items():
            self.clipped[fmt] = self.clipped.get(fmt, 0) + count

    def describe(self) -> str:
        """One-line summary, e.g. ``Q9.22: 3 clips / 1200 checked``."""
        if not self.clipped:
            return f"no saturation ({self.checked} values checked)"
        parts = ", ".join(
            f"{fmt.describe()}: {count}"
            for fmt, count in sorted(
                self.clipped.items(), key=lambda item: -item[1]
            )
        )
        return f"{parts} clips / {self.checked} checked"


#: The process-wide stats sink; ``None`` keeps the hot path untouched.
_ACTIVE_SINK: Optional[SaturationStats] = None


class observe_saturation:
    """Route all non-strict saturation accounting into ``stats``.

    Hardware runtimes wrap each step in this context so a whole run's
    clip counts accumulate in one :class:`SaturationStats`; helpers may
    also be given an explicit ``stats=`` sink, which takes precedence.
    (A class rather than a generator context manager: it is entered
    once per population per time step.)
    """

    __slots__ = ("stats", "_previous")

    def __init__(self, stats: SaturationStats):
        self.stats = stats
        self._previous: Optional[SaturationStats] = None

    def __enter__(self) -> SaturationStats:
        global _ACTIVE_SINK
        self._previous = _ACTIVE_SINK
        _ACTIVE_SINK = self.stats
        return self.stats

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE_SINK
        _ACTIVE_SINK = self._previous


def active_saturation_sink() -> Optional[SaturationStats]:
    """The stats object :func:`observe_saturation` currently routes to."""
    return _ACTIVE_SINK


def _saturate_scalar(
    raw: int,
    fmt: FixedFormat,
    strict: bool,
    stats: Optional[SaturationStats] = None,
) -> int:
    sink = stats if stats is not None else _ACTIVE_SINK
    if raw > fmt.raw_max:
        if strict:
            raise FixedPointOverflowError(
                f"raw value {raw} exceeds max {fmt.raw_max} of {fmt}"
            )
        if sink is not None:
            sink.record(fmt, 1, 1)
        return fmt.raw_max
    if raw < fmt.raw_min:
        if strict:
            raise FixedPointOverflowError(
                f"raw value {raw} below min {fmt.raw_min} of {fmt}"
            )
        if sink is not None:
            sink.record(fmt, 1, 1)
        return fmt.raw_min
    if sink is not None:
        sink.record(fmt, 1, 0)
    return raw


def _saturate_array(
    raw: np.ndarray,
    fmt: FixedFormat,
    strict: bool,
    stats: Optional[SaturationStats] = None,
) -> np.ndarray:
    # One min/max pass decides; clipping and counting run only when a
    # value is out of range (a NaN fails the check and takes that path).
    in_range = raw.size == 0 or (
        raw.min() >= fmt.raw_min and raw.max() <= fmt.raw_max
    )
    if strict:
        if not in_range:
            raise FixedPointOverflowError(f"array value saturates format {fmt}")
        return raw
    sink = stats if stats is not None else _ACTIVE_SINK
    if in_range:
        if sink is not None:
            sink.record(fmt, raw.size, 0)
        return raw
    if sink is not None:
        over = int(np.count_nonzero(raw > fmt.raw_max))
        under = int(np.count_nonzero(raw < fmt.raw_min))
        sink.record(fmt, raw.size, over + under)
    return np.clip(raw, fmt.raw_min, fmt.raw_max)


def _saturate(
    raw: RawLike,
    fmt: FixedFormat,
    strict: bool,
    stats: Optional[SaturationStats] = None,
) -> RawLike:
    if isinstance(raw, np.ndarray):
        return _saturate_array(raw, fmt, strict, stats)
    return _saturate_scalar(int(raw), fmt, strict, stats)


def fx_saturate(
    raw: RawLike,
    fmt: FixedFormat,
    strict: bool = False,
    stats: Optional[SaturationStats] = None,
) -> RawLike:
    """Saturate raw values to a format's range, with accounting.

    The public face of the internal saturation helpers: the membrane
    truncation write-back (Section IV-B1) uses this so clamps against
    the narrow 24-bit store are counted like every other saturation.
    """
    return _saturate(raw, fmt, strict, stats)


def fx_from_float(value, fmt: FixedFormat, strict: bool = False) -> RawLike:
    """Quantise a float (or float array) to raw fixed-point integers.

    Rounds to nearest and saturates to the format range unless
    ``strict``. The two paths break ties differently, and both are
    pinned by the spike digests: a scalar rounds ties away from zero
    (``-0.5`` LSB becomes ``-1``), an array rounds ties up, towards
    +inf (``floor(x * scale + 0.5)``: ``-0.5`` LSB becomes ``0``).
    NaN quantises to 0 and +/-inf saturates.
    """
    if isinstance(value, np.ndarray):
        arr = np.asarray(value, dtype=np.float64)
        # Fast path: when every rounded value is finite and in range,
        # fx_round's NaN/inf replacement and pre-clamp and the
        # saturation are all identities, so only the rounding runs.
        rounded = np.floor(arr * fmt.scale + 0.5)
        if rounded.size == 0 or (
            float(rounded.min()) >= fmt.raw_min
            and float(rounded.max()) <= fmt.raw_max
        ):
            if _ACTIVE_SINK is not None and not strict:
                _ACTIVE_SINK.record(fmt, rounded.size, 0)
            return rounded.astype(np.int64)
        return _saturate_array(fx_round(arr, fmt), fmt, strict)
    # Pre-clamp to twice the representable range so the float->int cast
    # cannot overflow int64 for huge inputs (e.g. a saturating exp);
    # the clamped value still trips strict-mode overflow detection.
    lo, hi = 2.0 * fmt.min_value - 1.0, 2.0 * fmt.max_value + 1.0
    clamped = min(max(float(value), lo), hi)
    if clamped != clamped:  # NaN
        clamped = 0.0
    scaled = clamped * fmt.scale
    raw = int(np.floor(scaled + 0.5)) if scaled >= 0 else -int(np.floor(-scaled + 0.5))
    return _saturate_scalar(raw, fmt, strict)


def fx_round(arr: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """The array quantiser of :func:`fx_from_float` without its saturation.

    NaN becomes 0 and the values are pre-clamped to twice the format's
    range, so the int64 cast is always defined; the result may still
    lie outside the format and is left for the caller to saturate.
    """
    lo, hi = 2.0 * fmt.min_value - 1.0, 2.0 * fmt.max_value + 1.0
    arr = np.nan_to_num(arr, nan=0.0, posinf=hi, neginf=lo)
    return np.floor(np.clip(arr, lo, hi) * fmt.scale + 0.5).astype(np.int64)


def fx_to_float(raw: RawLike, fmt: FixedFormat):
    """Convert raw fixed-point integers back to floats."""
    if isinstance(raw, np.ndarray):
        return raw.astype(np.float64) / fmt.scale
    return float(raw) / fmt.scale


def fx_add(a: RawLike, b: RawLike, fmt: FixedFormat, strict: bool = False) -> RawLike:
    """Saturating fixed-point addition of two raw values."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        raw = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
        return _saturate_array(raw, fmt, strict)
    return _saturate_scalar(int(a) + int(b), fmt, strict)


def fx_sub(a: RawLike, b: RawLike, fmt: FixedFormat, strict: bool = False) -> RawLike:
    """Saturating fixed-point subtraction ``a - b``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        raw = np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)
        return _saturate_array(raw, fmt, strict)
    return _saturate_scalar(int(a) - int(b), fmt, strict)


def fx_neg(a: RawLike, fmt: FixedFormat, strict: bool = False) -> RawLike:
    """Saturating fixed-point negation."""
    if isinstance(a, np.ndarray):
        return _saturate_array(-np.asarray(a, dtype=np.int64), fmt, strict)
    return _saturate_scalar(-int(a), fmt, strict)


def fx_mul(a: RawLike, b: RawLike, fmt: FixedFormat, strict: bool = False) -> RawLike:
    """Saturating fixed-point multiply with truncation toward -inf.

    The full-precision product has ``2 * frac_bits`` fractional bits;
    the hardware truncates back to ``frac_bits`` by an arithmetic right
    shift, which this helper reproduces exactly.

    The vector path goes through Python-object arithmetic only when the
    operands risk overflowing int64 (never the case for the 32-bit
    formats used here, whose products fit in 63 bits).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        prod = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
        raw = prod >> fmt.frac_bits
        return _saturate_array(raw, fmt, strict)
    raw = (int(a) * int(b)) >> fmt.frac_bits
    return _saturate_scalar(raw, fmt, strict)


class Fixed:
    """A scalar fixed-point value: a raw integer plus its format.

    ``Fixed`` supports ``+``, ``-``, ``*`` and comparisons against other
    ``Fixed`` values of the *same* format; mixing formats is an error so
    that datapath models cannot silently mix precisions. Use
    :meth:`Fixed.from_float` / :attr:`Fixed.value` at the boundaries.
    """

    __slots__ = ("raw", "fmt")

    def __init__(self, raw: int, fmt: FixedFormat):
        self.raw = int(raw)
        self.fmt = fmt

    @classmethod
    def from_float(cls, value: float, fmt: FixedFormat = FLEXON_FORMAT) -> "Fixed":
        """Quantise ``value`` into the given format."""
        return cls(fx_from_float(value, fmt), fmt)

    @classmethod
    def zero(cls, fmt: FixedFormat = FLEXON_FORMAT) -> "Fixed":
        """The zero value in the given format."""
        return cls(0, fmt)

    @classmethod
    def one(cls, fmt: FixedFormat = FLEXON_FORMAT) -> "Fixed":
        """The value 1.0 in the given format (saturated if out of range)."""
        return cls(fx_from_float(1.0, fmt), fmt)

    @property
    def value(self) -> float:
        """The real value this fixed-point number represents."""
        return fx_to_float(self.raw, self.fmt)

    def _check_fmt(self, other: "Fixed") -> None:
        if self.fmt != other.fmt:
            raise FixedPointFormatError(
                f"format mismatch: {self.fmt} vs {other.fmt}"
            )

    def __add__(self, other: "Fixed") -> "Fixed":
        self._check_fmt(other)
        return Fixed(fx_add(self.raw, other.raw, self.fmt), self.fmt)

    def __sub__(self, other: "Fixed") -> "Fixed":
        self._check_fmt(other)
        return Fixed(fx_sub(self.raw, other.raw, self.fmt), self.fmt)

    def __mul__(self, other: "Fixed") -> "Fixed":
        self._check_fmt(other)
        return Fixed(fx_mul(self.raw, other.raw, self.fmt), self.fmt)

    def __neg__(self) -> "Fixed":
        return Fixed(fx_neg(self.raw, self.fmt), self.fmt)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fixed):
            return NotImplemented
        return self.fmt == other.fmt and self.raw == other.raw

    def __lt__(self, other: "Fixed") -> bool:
        self._check_fmt(other)
        return self.raw < other.raw

    def __le__(self, other: "Fixed") -> bool:
        self._check_fmt(other)
        return self.raw <= other.raw

    def __gt__(self, other: "Fixed") -> bool:
        self._check_fmt(other)
        return self.raw > other.raw

    def __ge__(self, other: "Fixed") -> bool:
        self._check_fmt(other)
        return self.raw >= other.raw

    def __hash__(self) -> int:
        return hash((self.raw, self.fmt))

    def __repr__(self) -> str:
        return f"Fixed({self.value:.9g}, {self.fmt.describe()})"
