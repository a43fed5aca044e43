"""Unified engine options: one validated value object instead of kwarg soup.

Before this module, every entry point — :class:`~repro.core.Warlock`, the six
tuning studies, :func:`~repro.analysis.compare_specs`, four CLI subcommands —
re-threaded the same ad-hoc ``jobs`` / ``vectorize`` / ``cache`` /
``cache_dir`` keyword arguments through four layers, each validating (or
forgetting to validate) them on its own.  :class:`EngineOptions` consolidates
them into a single frozen dataclass that is validated once, compared by value,
hashable, JSON round-trippable, and threaded verbatim from the API façade down
to :class:`~repro.engine.EvaluationEngine`.

The legacy keyword arguments remain accepted everywhere as *deprecation
shims*: they behave exactly as before but emit an
:class:`EngineOptionsDeprecationWarning` pointing at the option object.  The
dedicated warning category (still a :class:`DeprecationWarning`) lets CI turn
exactly these shims into errors — internal callers must all be migrated —
without tripping over unrelated third-party deprecations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import AdvisorError

__all__ = [
    "EngineOptions",
    "EngineOptionsDeprecationWarning",
    "UNSET",
    "resolve_engine_options",
]


class EngineOptionsDeprecationWarning(DeprecationWarning):
    """Warning category of the legacy per-kwarg engine-option shims.

    A dedicated subclass so test suites and CI can promote exactly these
    warnings to errors (``-W error::repro.api.options.EngineOptionsDeprecationWarning``)
    while leaving unrelated :class:`DeprecationWarning` sources alone.
    """


#: Sentinel distinguishing "kwarg not passed" from an explicit ``None``.
UNSET = object()

#: Normalized vectorization modes (see :attr:`EngineOptions.vectorize_mode`).
_VECTORIZE_MODES = ("none", "classes", "candidates")


def _validate_jobs(jobs: Union[int, str]) -> None:
    if jobs != "auto" and (not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1):
        raise AdvisorError(
            f'jobs must be a positive integer or "auto", got {jobs!r}'
        )


@dataclass(frozen=True)
class EngineOptions:
    """Execution options of the candidate-evaluation engine.

    Parameters
    ----------
    jobs:
        Worker processes for candidate sweeps.  ``1`` (default) evaluates
        serially in-process, higher values use a process pool with guaranteed
        result parity, ``"auto"`` (the CLI default) evaluates serially: the
        pool has not beaten serial evaluation on any measured sweep.
    vectorize:
        Vectorization mode of the cost sweep.  ``True`` (default, alias
        ``"candidates"``) batches whole chunks of same-axis-structure
        candidates as (candidate × class) numpy arrays; ``"classes"``
        vectorizes one candidate's class axis at a time (the pre-candidate-axis
        default); ``False`` (alias ``"none"``, CLI ``--no-vectorize``) runs
        the scalar reference path.  Results are bit-identical in every mode —
        see :attr:`vectorize_mode` for the normalized value.
    cache:
        ``True`` (default) memoizes access structures and whole candidate
        evaluations in an :class:`~repro.engine.EvaluationCache`; ``False``
        disables memoization entirely (the benchmark's seed-equivalent
        baseline).  To *share* a concrete cache instance across engines or
        sessions, pass it via the ``cache=`` parameter of the respective
        constructor — the instance is a collaboration handle, not an option.
    cache_dir:
        Directory of a persistent cache store (CLI ``--cache-dir``,
        environment ``WARLOCK_CACHE_DIR``).  When set, the cache warm-starts
        from disk and — subject to ``persist`` — spills back after every
        sweep.  Requires ``cache=True``.
    persist:
        ``True`` (default) spills new cache entries back to ``cache_dir``
        after every sweep; ``False`` treats the store as read-only: the run
        still warm-starts from it but never writes back.  Meaningless (and
        ignored) without a ``cache_dir``.
    cache_max_mb:
        Byte budget of the persistent store in megabytes (CLI
        ``--cache-max-mb``).  When set, every save garbage-collects the store
        directory down to the budget, evicting the least-recently-used
        entries first; ``None`` (default) keeps the store unbounded.
        Requires ``cache_dir``.
    fabric:
        ``host:port`` bind address of a distributed sweep coordinator (CLI
        ``--fabric``).  When set, candidate sweeps are leased out to fabric
        workers (``warlock worker host:port``) instead of the local process
        pool; with no reachable workers the coordinator degrades to local
        evaluation after ``fabric_grace`` seconds, so the option is always
        safe.  ``None`` (default) keeps sweeps local.
    fabric_grace:
        Seconds of total worker silence before a fabric sweep degrades to
        local evaluation (CLI ``--fabric-grace``).
    fabric_lease:
        Seconds of heartbeat silence before a fabric chunk lease is re-queued
        to another worker (CLI ``--fabric-lease``).
    """

    jobs: Union[int, str] = 1
    vectorize: Union[bool, str] = True
    cache: bool = True
    cache_dir: Optional[str] = None
    persist: bool = True
    cache_max_mb: Optional[float] = None
    fabric: Optional[str] = None
    fabric_grace: float = 2.0
    fabric_lease: float = 30.0

    def __post_init__(self) -> None:
        _validate_jobs(self.jobs)
        if not isinstance(self.vectorize, bool) and self.vectorize not in (
            _VECTORIZE_MODES
        ):
            raise AdvisorError(
                f"EngineOptions.vectorize must be a bool or one of "
                f"{sorted(_VECTORIZE_MODES)}, got {self.vectorize!r}"
            )
        for name in ("cache", "persist"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise AdvisorError(
                    f"EngineOptions.{name} must be a bool, got {value!r}"
                )
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise AdvisorError(
                f"EngineOptions.cache_dir must be a string path or None, "
                f"got {self.cache_dir!r}"
            )
        if self.cache_dir == "":
            raise AdvisorError("EngineOptions.cache_dir must not be empty")
        if self.cache_dir is not None and not self.cache:
            raise AdvisorError(
                "EngineOptions.cache_dir requires cache=True: a persistent "
                "store without an in-memory cache has nothing to fill or spill"
            )
        if self.cache_max_mb is not None:
            if (
                isinstance(self.cache_max_mb, bool)
                or not isinstance(self.cache_max_mb, (int, float))
                or not self.cache_max_mb > 0
            ):
                raise AdvisorError(
                    f"EngineOptions.cache_max_mb must be a positive number or "
                    f"None, got {self.cache_max_mb!r}"
                )
            if self.cache_dir is None:
                raise AdvisorError(
                    "EngineOptions.cache_max_mb requires cache_dir: a byte "
                    "budget without a persistent store bounds nothing"
                )
        if self.fabric is not None:
            # Validated inline (not via repro.fabric) so the options layer
            # stays import-light; the coordinator re-parses at bind time.
            if not isinstance(self.fabric, str) or not self.fabric.strip():
                raise AdvisorError(
                    f"EngineOptions.fabric must be a host:port string or "
                    f"None, got {self.fabric!r}"
                )
            _, sep, port_text = self.fabric.strip().rpartition(":")
            if sep:
                try:
                    port = int(port_text)
                except ValueError:
                    raise AdvisorError(
                        f"EngineOptions.fabric has an invalid port: "
                        f"{self.fabric!r}"
                    )
                if not 0 <= port <= 65535:
                    raise AdvisorError(
                        f"EngineOptions.fabric port out of range: {self.fabric!r}"
                    )
        for name in ("fabric_grace", "fabric_lease"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or value < 0
                or (name == "fabric_lease" and value == 0)
            ):
                bound = "positive" if name == "fabric_lease" else "non-negative"
                raise AdvisorError(
                    f"EngineOptions.{name} must be a {bound} number, got {value!r}"
                )

    # -- derivation -------------------------------------------------------------

    @property
    def vectorize_mode(self) -> str:
        """The normalized vectorization mode: ``none``/``classes``/``candidates``.

        The boolean aliases map ``True`` → ``"candidates"`` (the fully batched
        default) and ``False`` → ``"none"`` (the scalar reference path).
        """
        if self.vectorize is True:
            return "candidates"
        if self.vectorize is False:
            return "none"
        return self.vectorize

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready, round-trips through :meth:`from_dict`)."""
        return {
            "jobs": self.jobs,
            "vectorize": self.vectorize,
            "cache": self.cache,
            "cache_dir": self.cache_dir,
            "persist": self.persist,
            "cache_max_mb": self.cache_max_mb,
            "fabric": self.fabric,
            "fabric_grace": self.fabric_grace,
            "fabric_lease": self.fabric_lease,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "EngineOptions":
        """Build options from a mapping, rejecting unknown keys.

        This is the parser of the JSON config file's ``"engine"`` block; a
        typo like ``"job"`` must be an error, not a silently ignored default.
        """
        if not isinstance(raw, Mapping):
            raise AdvisorError(
                f"engine options must be a mapping, got {type(raw).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise AdvisorError(
                f"unknown engine option(s) {', '.join(map(repr, unknown))}; "
                f"known options: {', '.join(sorted(known))}"
            )
        return cls(**dict(raw))

    def describe(self) -> str:
        """One-line summary used by logs and the CLI."""
        mode = self.vectorize_mode
        parts = [
            f"jobs={self.jobs}",
            {
                "none": "scalar",
                "classes": "vectorized (class axis)",
                "candidates": "vectorized",
            }[mode],
        ]
        if not self.cache:
            parts.append("uncached")
        elif self.cache_dir:
            parts.append(
                f"store={self.cache_dir}" + ("" if self.persist else " (read-only)")
            )
            if self.cache_max_mb is not None:
                parts.append(f"budget={self.cache_max_mb:g}MB")
        if self.fabric is not None:
            parts.append(
                f"fabric={self.fabric} "
                f"(lease={self.fabric_lease:g}s, grace={self.fabric_grace:g}s)"
            )
        return ", ".join(parts)


def _warn_deprecated(owner: str, kwarg: str, replacement: str, stacklevel: int) -> None:
    warnings.warn(
        f"{owner}({kwarg}=...) is deprecated; pass "
        f"options=EngineOptions({replacement}) instead",
        EngineOptionsDeprecationWarning,
        stacklevel=stacklevel,
    )


def resolve_engine_options(
    options: Optional[EngineOptions],
    *,
    owner: str,
    jobs: Any = UNSET,
    vectorize: Any = UNSET,
    cache: Any = UNSET,
    cache_dir: Any = UNSET,
    stacklevel: int = 5,
) -> Tuple[EngineOptions, Optional[Any]]:
    """Merge an :class:`EngineOptions` with the legacy per-kwarg shims.

    Returns ``(options, shared_cache)`` where ``shared_cache`` is the concrete
    :class:`~repro.engine.EvaluationCache` instance the caller passed for
    cross-engine sharing (or ``None``).  Legacy kwargs (``jobs=``,
    ``vectorize=``, ``cache_dir=``, and the ``cache=False`` switch) emit an
    :class:`EngineOptionsDeprecationWarning` and are folded into the returned
    options; combining them with an explicit ``options=`` is an error — the
    two would silently fight over the same knob.

    ``stacklevel`` pins the warning to the *shimmed callable's caller*.  The
    default 5 counts warn(1) -> merge(2) -> resolve_engine_options(3) -> the
    shimmed constructor/function(4) -> its caller(5); a shim one call deeper
    (the studies' ``_study_setup``) passes 6.
    """
    explicit = options is not None
    resolved = options if explicit else EngineOptions()

    def merge(kwarg: str, replacement: str, **changes: Any) -> EngineOptions:
        if explicit:
            raise AdvisorError(
                f"{owner}: pass either options=EngineOptions(...) or the "
                f"deprecated {kwarg}= keyword, not both"
            )
        # Validate before warning: an invalid value raises the same
        # AdvisorError it always did, without a warning riding along.
        updated = resolved.replace(**changes)
        _warn_deprecated(owner, kwarg, replacement, stacklevel)
        return updated

    if jobs is not UNSET:
        resolved = merge("jobs", f"jobs={jobs!r}", jobs=jobs)
    if vectorize is not UNSET:
        resolved = merge(
            "vectorize",
            f"vectorize={vectorize!r}",
            vectorize=vectorize if isinstance(vectorize, str) else bool(vectorize),
        )
    if cache_dir is not UNSET and cache_dir is not None:
        resolved = merge(
            "cache_dir", f"cache_dir={cache_dir!r}", cache_dir=str(cache_dir)
        )

    shared_cache = None
    if cache is not UNSET:
        if cache is False:
            # cache=False always ignored cache_dir; keep that contract.
            resolved = merge("cache", "cache=False", cache=False, cache_dir=None)
        elif cache is not None:
            # A concrete EvaluationCache instance: the supported sharing hook,
            # not a deprecated option (sessions, studies and comparisons pass
            # one cache around by design).
            shared_cache = cache
    return resolved, shared_cache
