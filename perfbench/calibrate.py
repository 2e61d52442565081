"""How fast this machine runs a given kind of work while a job runs.

On a shared host the speed available to one process drifts by up to a
factor of two over minutes, which swamps the differences a benchmark is
meant to show. The drift does not hit all code alike: interpreted Python
slows the most, a scan with a very large compiled regex hardly at all.

While a CLI call runs, a :class:`SpeedSampler` interrupts it every
``INTERVAL_S`` seconds (``SIGALRM``) and times a small fixed piece of work
of the kind that dominates the workload. The samples are spread evenly over
the call, so their mean is the machine's speed over exactly that call. The
call's wall time minus the sampling time is then scaled to a machine on
which the piece takes its reference time. No piece touches medcorpus: a
change to the program moves the job time and not the piece.

- ``interpreter``: a per-character Python loop, dictionary counting, a small
  regex scan, JSON encoding, sorting and a small BLAS product.
- ``large-regex``: a scan with an alternation of several thousand words.
"""

from __future__ import annotations

import json
import random
import re
import signal
import time

import numpy as np

INTERVAL_S = 0.25

_rng = random.Random(20230314)
_WORDS = [
    "".join(_rng.choice("abcdefghijklmnopqrstuvwxyzäöüß") for _ in range(_rng.randint(3, 11)))
    for _ in range(600)
]
_TEXT = " ".join(
    _rng.choice(_WORDS).capitalize() if _rng.random() < 0.1 else _rng.choice(_WORDS)
    for _ in range(1500)
)
_PATTERN = re.compile(r"\b(?:[0-3]?\d\.[01]?\d\.\d{4}|[A-ZÄÖÜ]\w+)\b")
_LEFT = np.asarray([[_rng.random() for _ in range(64)] for _ in range(32)])
_RIGHT = np.asarray([[_rng.random() for _ in range(256)] for _ in range(64)])
_ALTERNATION = re.compile(
    r"\b(?:%s)\b"
    % "|".join(
        sorted(
            {
                "".join(_rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(_rng.randint(5, 10)))
                .capitalize()
                for _ in range(8000)
            }
        )
    )
)
_SCAN_TEXT = _TEXT[:360]


def interpreter_piece() -> int:
    """Interpreter-bound work; returns a checksum so nothing is skipped."""
    counts: dict[str, int] = {}
    for word in _TEXT.split():
        counts[word] = counts.get(word, 0) + 1
    offsets = [0]
    total = 0
    for ch in _TEXT:
        total += len(ch.encode("utf-8"))
        offsets.append(total)
    hits = sum(1 for _ in _PATTERN.finditer(_TEXT))
    blob = json.dumps(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])), ensure_ascii=False)
    product = _LEFT @ _RIGHT
    return len(counts) + offsets[-1] + hits + len(blob) + int(product.shape[1])


def large_regex_piece() -> int:
    """A scan with a large compiled alternation, bound by memory access."""
    return sum(m.end() for m in _ALTERNATION.finditer(_SCAN_TEXT))


# kind -> (piece, its duration in seconds on the reference machine). Never
# change a piece or its reference: results before and after stop being
# comparable.
PIECES = {
    "interpreter": (interpreter_piece, 0.005),
    "large-regex": (large_regex_piece, 0.005),
}


class SpeedSampler:
    """Times the piece of one kind once on entry and then every
    ``interval_s`` seconds until exit. Main thread only."""

    def __init__(self, kind: str, interval_s: float = INTERVAL_S) -> None:
        self.piece, self.reference_s = PIECES[kind]
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.inside_s = 0.0
        self._previous = None

    def _sample(self) -> float:
        start = time.perf_counter()
        self.piece()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def _tick(self, signum, frame) -> None:
        self.inside_s += self._sample()

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, wall_s: float) -> float:
        """Seconds of work in ``wall_s``, at the reference machine speed."""
        mean = sum(self.samples) / len(self.samples)
        return wall_s * self.reference_s / mean
