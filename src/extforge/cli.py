"""Command-line surface: resolve, ext, verify, bgpoly, plus the chart cache.

Coefficient descriptors form a tiny expression grammar:

    atom      := f2 | h8 | h8v18 | bo:<i> | tmfbg:<j> | abar:<N> | a2qa1
    factor    := [s^<k>] atom          (suspension prefix, module atoms only)
    expr      := factor {"⊗" factor}   ("*" works as an ASCII tensor sign)

At most one cone atom (h8, h8v18) may appear; the remaining factors are
tensored into the coefficient module.  ``ext "bo:1 ⊗ h8v18"`` therefore
means Ext of the cone object with bo_1 coefficients.

Each cache entry is one gzip JSON file, checked on every read by the
CRC-32 and length in its gzip trailer; the payload then loads only if its
format version, minimality and bounds match its key.  A failed check is
reported, never silently recomputed, unless --force is given.  Each
writer renames its own temp file onto the entry, so concurrent invocations
sharing a cache directory see either the whole old file or the whole new
one.

Each subcommand imports the engine modules it runs when it runs, so
``--version`` loads none of them, ``bgpoly`` loads only ``bgpoly``, and
``ext`` loads the chart renderers only when it writes a TSV, SVG or PNG.
Engine names are bound at call time, never at import time, which is what
lets ``perfbench/traced.py`` wrap them after importing every module.  The
package's records are NamedTuples and plain classes, which compile no
generated methods, so no command imports ``inspect`` (with ``ast``) or
``fractions``.

``--window`` narrows the rendered formats only, so ``--format json``
refuses it.

``verify all`` runs the cobar oracle in a second ``ext-forge`` process when
two or more CPUs are usable, and the other suites in this one; its output
is the same bytes either way.

Exit codes: 0 success, 1 verification/cache failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from . import COBAR_MAX_S, COBAR_MAX_STEM, __version__
from .records import record

if TYPE_CHECKING:
    import subprocess

    from .milnor import Profile
    from .modules import FiniteModule
    from .resolution import ExtChart, FreeComplex, FreeResolution, SelfMapSelection

CACHE_ENV_VAR = "EXTFORGE_CACHE_DIR"
# --algebra choice -> name of its Profile in milnor
ALGEBRAS: dict[str, str] = {"A1": "A1", "A2": "A2", "A3": "A3", "A": "FULL"}


class UsageError(ValueError):
    pass


class CacheError(RuntimeError):
    pass


class SuiteError(RuntimeError):
    """A verify suite that ran to no result."""


def algebra_profile(name: str) -> Profile:
    if name not in ALGEBRAS:
        raise UsageError(f"unknown algebra {name!r}; choose from {sorted(ALGEBRAS)}")
    from . import milnor

    return getattr(milnor, ALGEBRAS[name])


# ---------------------------------------------------------------------------
# cache store


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "extforge"


def _gzip_bytes(text: str) -> bytes:
    # mtime pinned so identical payloads compress to identical bytes
    import gzip
    import io

    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    return buf.getvalue()


def write_cache_entry(cache_dir: Path, key: str, payload_doc: dict) -> Path:
    """Store one gzip payload; a rename from a per-writer temp file makes it atomic."""
    import json

    payload = _gzip_bytes(json.dumps(payload_doc, sort_keys=True, separators=(",", ":")))
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload_path = cache_dir / f"{key}.json.gz"
    tmp = cache_dir / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
    tmp.write_bytes(payload)
    tmp.replace(payload_path)
    return payload_path


def read_cache_entry(cache_dir: Path, key: str) -> Optional[dict]:
    """Load one entry; None when absent, CacheError when gzip's CRC-32 or
    length check, or the JSON inside, fails, or that JSON is not an object."""
    import gzip
    import json
    import zlib

    try:
        raw = (cache_dir / f"{key}.json.gz").read_bytes()
    except FileNotFoundError:
        return None
    try:
        doc = json.loads(gzip.decompress(raw))
    except (gzip.BadGzipFile, EOFError, zlib.error, ValueError) as exc:
        raise CacheError(
            f"corrupt cache entry {key} ({exc}); rerun with --force to recompute"
        ) from exc
    if not isinstance(doc, dict):
        raise CacheError(
            f"corrupt cache entry {key} (its JSON is not an object); rerun with --force to recompute"
        )
    return doc


def resolve_cached(
    algebra_name: str,
    max_s: int,
    max_t: int,
    cache_dir: Path,
    force: bool = False,
    log: Callable[[str], None] = lambda _s: None,
) -> tuple[FreeResolution, bool]:
    """Minimal resolution through the cache; returns (resolution, was_hit)."""
    from .resolution import RESOLUTION_FORMAT_VERSION, FreeComplex, FreeResolution, minimal_resolution

    algebra = algebra_profile(algebra_name)
    if max_s <= 0 or max_t <= 0:
        raise UsageError("resolution bounds must be positive")
    key = f"res-v{RESOLUTION_FORMAT_VERSION}-{algebra_name}-s{max_s}-t{max_t}"
    if not force:
        doc = read_cache_entry(cache_dir, key)
        if doc is not None:
            try:
                res = FreeComplex.from_json_dict(doc)
                if isinstance(res, FreeResolution):
                    res.verify_minimal()
            except (KeyError, TypeError, ValueError) as exc:
                # ResolutionError is a ValueError: a format version or a
                # minimality check the entry fails
                raise CacheError(
                    f"cache entry {key} does not load ({exc!r}); rerun with --force to recompute"
                ) from exc
            if not isinstance(res, FreeResolution):
                raise CacheError(f"cache entry {key} is not a plain resolution")
            if (res.algebra, res.max_s, res.max_t) != (algebra, max_s, max_t):
                raise CacheError(
                    f"cache entry {key} holds another algebra or bounds than its name; "
                    "rerun with --force to recompute"
                )
            log(f"cache hit: {key}")
            return res, True
    res = minimal_resolution(algebra, max_s, max_t)
    write_cache_entry(cache_dir, key, res.to_json_dict())
    log(f"computed and cached: {key}")
    return res, False


# ---------------------------------------------------------------------------
# coefficient descriptors


@record
class Factor(NamedTuple):
    atom: str
    arg: Optional[int]
    suspension: int


@record
class DescriptorPlan(NamedTuple):
    cell: Optional[str]  # None | "h8" | "h8v18"
    factors: tuple[Factor, ...]
    text: str

    @property
    def slug(self) -> str:
        import re

        return re.sub(r"[^a-z0-9]+", "-", self.text.lower()).strip("-") or "chart"


_CONE_ATOMS = ("h8", "h8v18")


def parse_descriptor(text: str) -> DescriptorPlan:
    """Parse a coefficient expression; raises UsageError with the bad token."""
    stripped = text.strip()
    if not stripped:
        raise UsageError("empty coefficient descriptor")
    parts = stripped.replace("⊗", "*").split("*")
    cell: Optional[str] = None
    factors: list[Factor] = []
    for part in parts:
        tokens = part.split()
        if not tokens or len(tokens) > 2:
            raise UsageError(f"cannot parse descriptor factor {part.strip()!r}")
        susp = 0
        if len(tokens) == 2:
            head = tokens[0].lower()
            if not head.startswith("s^"):
                raise UsageError(f"expected suspension prefix s^<k>, got {tokens[0]!r}")
            try:
                susp = int(head[2:])
            except ValueError as exc:
                raise UsageError(f"bad suspension {tokens[0]!r}") from exc
            if susp < 0:
                # nothing below t = 0 is resolved, so a negative shift would lose classes
                raise UsageError(f"suspension {tokens[0]!r} must be non-negative")
        name = tokens[-1].lower()
        if name in _CONE_ATOMS:
            if susp:
                raise UsageError("suspension applies to module factors, not cone atoms")
            if cell is not None:
                raise UsageError("at most one cone atom (h8, h8v18) per descriptor")
            cell = name
            continue
        if ":" in name:
            head, _, tail = name.partition(":")
            if head not in ("bo", "tmfbg", "abar"):
                raise UsageError(f"unknown coefficient atom {name!r}")
            try:
                arg = int(tail)
            except ValueError as exc:
                raise UsageError(f"bad index in {name!r}") from exc
            if arg <= 0:
                raise UsageError(f"index in {name!r} must be positive")
            if head == "abar" and arg < 8:
                raise UsageError(f"the cutoff in {name!r} must be at least 8, the first positive degree")
            factors.append(Factor(head, arg, susp))
            continue
        if name in ("f2", "a2qa1"):
            factors.append(Factor(name, None, susp))
            continue
        raise UsageError(f"unknown coefficient atom {name!r}")
    return DescriptorPlan(cell=cell, factors=tuple(factors), text=stripped)


def _build_factor(factor: Factor, algebra: Profile) -> FiniteModule:
    from . import milnor, modules

    if factor.atom == "f2":
        M = modules.trivial(algebra)
    elif factor.atom == "bo":
        M = modules.bo(factor.arg, algebra)
    elif factor.atom == "tmfbg":
        M = modules.tmf_bg(factor.arg, algebra)
    elif factor.atom == "abar":
        M = modules.abar_truncation(factor.arg, algebra)
    elif factor.atom == "a2qa1":
        if algebra != milnor.A2:
            raise UsageError("a2qa1 coefficients live over A2; pass --algebra A2")
        M = modules.quotient_hopf_module(milnor.A2, milnor.A1)
    else:  # pragma: no cover - parse_descriptor screens atoms
        raise UsageError(f"unknown atom {factor.atom!r}")
    if factor.suspension:
        M = modules.suspend(M, factor.suspension)
    return M


def build_coefficients(plan: DescriptorPlan, algebra: Profile) -> FiniteModule:
    """Tensor the module factors together, left to right.  A module the
    algebra cannot carry (any module over the full algebra) is a UsageError."""
    from . import modules

    try:
        if not plan.factors:
            return modules.trivial(algebra)
        built = [_build_factor(f, algebra) for f in plan.factors]
        out = built[0]
        for M in built[1:]:
            out = modules.tensor(out, M)
        return out
    except modules.ComoduleError as exc:
        raise UsageError(f"coefficients {plan.text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# chart construction

H8_CLASS = (3, 3)  # h0^3
V18_CLASS = (8, 24)  # v1^8 on the cone
# the (window_s, window_t) of the v1^8 selection; fixed, so its certificate
# does not depend on how deep a caller resolved
V18_WINDOW = (V18_CLASS[0] + 3, V18_CLASS[1] + 6)


def _h8v18_cone(res: FreeResolution, X: FreeComplex) -> tuple[SelfMapSelection, Optional[FreeComplex]]:
    """Select the v1^8 self-map on X, the cone on h0^3 over ``res``; returns
    the selection and the cone on it, or None in place of the cone when the
    selection is not unique."""
    from .resolution import cone, select_self_map

    ws, wt = V18_WINDOW
    # the window reads cone levels <= ws, which are final only over a
    # resolution through level ws + 1 (see _resolution_depth)
    if res.max_s < ws + 1:
        raise UsageError(
            f"selecting the ({V18_CLASS[0]},{V18_CLASS[1]}) self-map needs a resolution "
            f"through level {ws + 1}; this one stops at level {res.max_s}"
        )
    if res.max_t < wt:
        raise UsageError(
            f"bounds too small to select the ({V18_CLASS[0]},{V18_CLASS[1]}) self-map; "
            f"need --max-t >= {wt}"
        )
    sel = select_self_map(X, *V18_CLASS, res, window_s=ws, window_t=wt)
    return sel, (cone(X, *V18_CLASS, sel.attach_coords) if sel.unique else None)


def _resolution_depth(cell: Optional[str], max_s: int) -> int:
    """How deep to resolve for a chart of filtration <= max_s over ``cell``:
    the last resolution level that the chart's output depends on.

    - ``ext_over_complex(X, ..., max_s)`` reads levels <= max_s + 1 of X.
    - ``cone(base, ...)`` builds its level L from base levels <= L and the
      lifted chain map's rows at level L.  Those rows are final only once
      level L + 1 is solved, since a corrected level rewrites the one below
      it and nothing lower (``lift_cocycle``).  So each cone costs one more
      base level.
    - Levels <= N of ``minimal_resolution(A, N, T)`` equal those of any
      deeper resolution: it runs degree by degree, level by level within a
      degree.

    Each cone also needs the level of the class it cones off: h0^3 sits at
    level H8_CLASS[0].  The v1^8 selection reads levels <= V18_WINDOW[0] of
    the h0^3 cone (its window, and the flanking spot (10, 27), which reads
    level 11).
    """
    if cell is None:
        return max_s + 1
    if cell == "h8":
        return max(max_s + 2, H8_CLASS[0])
    return max(max_s + 3, V18_WINDOW[0] + 1)


def build_chart(
    plan: DescriptorPlan,
    algebra_name: str,
    max_s: int,
    max_t: int,
    cache_dir: Path,
    force: bool = False,
    log: Callable[[str], None] = lambda _s: None,
) -> tuple[ExtChart, dict[str, list[int]]]:
    """Resolve, build any cone object, and compute the requested chart."""
    from .resolution import ResolutionError, cone, ext_f2, ext_over_complex

    # bounds the cone pipeline cannot use fail before a resolution is cached
    if plan.cell == "h8" and max_t < H8_CLASS[1]:
        raise UsageError(f"the cone on h0^3 needs --max-t >= {H8_CLASS[1]}, got {max_t}")
    if plan.cell == "h8v18" and max_t < V18_WINDOW[1]:
        raise UsageError(
            f"selecting the ({V18_CLASS[0]},{V18_CLASS[1]}) self-map needs "
            f"--max-t >= {V18_WINDOW[1]}, got {max_t}"
        )
    # a plain F2 chart counts generators and needs no coefficient module
    plain = plan.cell is None and all(f.atom == "f2" and not f.suspension for f in plan.factors)
    # any other module is built first, so one the algebra cannot carry
    # fails before a resolution is computed or cached
    M = None if plain else build_coefficients(plan, algebra_profile(algebra_name))
    res, _hit = resolve_cached(
        algebra_name, _resolution_depth(plan.cell, max_s), max_t, cache_dir, force=force, log=log
    )
    selections: dict[str, list[int]] = {}
    if plain:
        return ext_f2(res), selections
    if plan.cell is None:
        return ext_over_complex(res, M, M.name or "module", max_s=max_s, max_t=max_t), selections
    X = cone(res, *H8_CLASS)
    if plan.cell == "h8v18":
        sel, X = _h8v18_cone(res, X)
        if X is None:
            raise ResolutionError(f"self-map selection not canonical: {sel.note}")
        selections["h8v18"] = list(sel.attach_coords)
    name = plan.text if plan.factors else "F2"
    chart = ext_over_complex(X, M, name, max_s=max_s, max_t=max_t)
    return chart, selections


def _window_of(arg: Optional[str]) -> Optional[tuple[int, int]]:
    if arg is None:
        return None
    lo, sep, hi = arg.partition("..")
    if not sep:
        raise UsageError(f"window must look like a..b, got {arg!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"window must be integral, got {arg!r}") from exc
    if a > b:
        raise UsageError(f"empty window {arg!r}")
    return a, b


# ---------------------------------------------------------------------------
# subcommands


def cmd_resolve(args: argparse.Namespace) -> int:
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    res, hit = resolve_cached(
        args.algebra, args.max_s, args.max_t, cache_dir, force=args.force, log=_say
    )
    counts = [len(level) for level in res.gens]
    _say(
        f"resolution over {args.algebra}: levels 0..{res.max_s}, degrees <= {res.max_t}, "
        f"{sum(counts)} generators ({'cache hit' if hit else 'computed'})"
    )
    return 0


def cmd_ext(args: argparse.Namespace) -> int:
    plan = parse_descriptor(args.descriptor)
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    max_s = args.max_s
    if args.max_t is not None:
        max_t = args.max_t
    elif args.max_stem is not None:
        max_t = args.max_stem + max_s
    else:
        max_t = 30 + max_s
    window = _window_of(args.window)
    if window is not None and args.format == "json":
        raise UsageError("--window restricts the rendered stems; a JSON document holds the whole chart")
    if window is not None and window[1] > max_t - max_s:
        raise UsageError(
            f"window {args.window} exceeds the computed stem bound {max_t - max_s}; "
            "raise --max-stem or --max-t"
        )
    chart, selections = build_chart(plan, args.algebra, max_s, max_t, cache_dir, force=args.force, log=_say)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = f"ext-{plan.slug}-{args.algebra}-s{max_s}-t{max_t}"
    if window is not None:
        base += f"-w{window[0]}-{window[1]}"
    written: list[Path] = []

    formats = {args.format}
    if args.svg:
        formats.add("svg")
    if formats & {"tsv", "svg"}:
        from . import charts
    if "tsv" in formats:
        tsv_path = out_dir / f"{base}.tsv"
        tsv_path.write_text(charts.render_tsv(chart, window))
        written.append(tsv_path)
        if not args.no_png:
            png_path = out_dir / f"{base}.png"
            charts.render_png(chart, png_path, window)
            written.append(png_path)
    if "svg" in formats:
        svg_path = out_dir / f"{base}.svg"
        svg_path.write_text(charts.render_svg(chart, window))
        written.append(svg_path)
    if "json" in formats:
        import json

        doc = chart.to_json_dict()
        doc["self_map_selections"] = selections
        json_path = out_dir / f"{base}.json"
        json_path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        written.append(json_path)
    from .resolution import shown_dims

    shown = shown_dims(chart, window)
    _say(f"chart {plan.text}: {sum(shown.values())} classes in {len(shown)} bidegrees")
    for path in written:
        _say(f"wrote {path}")
    return 0


def cmd_bgpoly(args: argparse.Namespace) -> int:
    from . import bgpoly

    raw = args.index.replace(" ", "")
    try:
        parts = [int(p) for p in raw.split(",") if p]
    except ValueError as exc:
        raise UsageError(f"index must be an integer or comma list, got {args.index!r}") from exc
    if not parts:
        raise UsageError("empty index")
    try:
        poly = bgpoly.f(parts[0]) if len(parts) == 1 else bgpoly.f_multi(parts)
    except ValueError as exc:
        raise UsageError(f"index {args.index!r}: {exc}") from exc
    if len(parts) == 1:
        label = f"f_{parts[0]}"
    else:
        label = "f_{" + ",".join(str(p) for p in parts) + "}"
    _say(f"{label} = {poly}")
    # s^k t^l x^m is the summand Sigma^{8l+k} bo_1^{(x)m} [-k], whose bottom
    # cell first contributes at (s, t) = (k, 8l + 2k)
    for (k, l, m), mult in sorted(poly.coefficients):
        tensor = f"bo_1^(x{m})" if m else "F2"
        _say(
            f"  summand S^{8 * l + k} {tensor}: homological shift {k},"
            f" multiplicity {mult}, bottom bidegree {(k, 8 * l + 2 * k)}"
        )
    return 0


# ---------------------------------------------------------------------------
# verify suites

VerifyItem = tuple[str, bool, str]


def _oracle_bounds(args: argparse.Namespace) -> tuple[int, int]:
    """The oracle suite's (max_s, max_stem), checked against the cobar budget."""
    max_s = args.suite_max_s if args.suite_max_s is not None else 6
    max_stem = args.suite_max_stem if args.suite_max_stem is not None else 12
    if not (0 <= max_s <= COBAR_MAX_S and 0 <= max_stem <= COBAR_MAX_STEM):
        raise UsageError(
            f"the oracle needs 0 <= --suite-max-s <= {COBAR_MAX_S} and "
            f"0 <= --suite-max-stem <= {COBAR_MAX_STEM}, got ({max_s}, {max_stem})"
        )
    return max_s, max_stem


def _suite_oracle(args: argparse.Namespace) -> list[VerifyItem]:
    """Generator-count dims against the cobar Cotor dims, both coefficient rows."""
    from . import cobar, modules
    from .resolution import ext_f2, ext_over_complex, minimal_resolution

    max_s, max_stem = _oracle_bounds(args)
    items: list[VerifyItem] = []
    for alg_name in ("A1", "A2"):
        algebra = algebra_profile(alg_name)
        res = minimal_resolution(algebra, _resolution_depth(None, max_s), max_stem + max_s)
        # the oracle builds its own bo1 comodule, never the engine's module;
        # F2 on its bottom class is a subcomodule, so one cobar pass ranks both rows
        trivial: dict[tuple[int, int], int] = {}
        bo1_dims = cobar.cotor(
            algebra, cobar.bo1_comodule(algebra), max_s=max_s, max_stem=max_stem, bottom=trivial
        )
        bo1 = modules.bo(1, algebra)
        for coeff_name, M, oracle in (("trivial", None, trivial), ("bo1", bo1, bo1_dims)):
            chart = (
                ext_f2(res, install_products=())
                if M is None
                else ext_over_complex(res, M, coeff_name)
            )
            engine = {
                (s, t): d
                for (s, t), d in chart.dims.items()
                if s <= max_s and t - s <= max_stem and d
            }
            ok = engine == oracle
            diff = sorted(set(engine.items()) ^ set(oracle.items()))
            items.append(
                (
                    f"oracle.{alg_name}.{coeff_name}",
                    ok,
                    f"{len(oracle)} bidegrees agree" if ok else f"mismatch at {diff[:4]}",
                )
            )
    return items


def _suite_splitting(args: argparse.Namespace) -> list[VerifyItem]:
    from . import modules

    report = modules.verify_splitting(48)
    return [
        (
            "splitting.degree48",
            report.ok,
            f"checked {report.max_degree} degrees"
            if report.ok
            else f"first discrepancy at degree {report.first_discrepancy}",
        )
    ]


def _suite_bo_sequences(args: argparse.Namespace) -> list[VerifyItem]:
    from . import modules

    items = []
    for j in (1, 2, 3):
        report = modules.verify_bo_sequence(j)
        items.append(
            (
                f"bo-sequences.j{j}",
                report.ok,
                "Poincare series identity holds" if report.ok else str(report),
            )
        )
    return items


def _suite_bg_lemma(args: argparse.Namespace) -> list[VerifyItem]:
    from . import bgpoly

    bad = [i for i in range(1, 129) if not bgpoly.check_lemma(i).ok]
    return [
        (
            "bg-lemma.i<=128",
            not bad,
            "all four properties hold" if not bad else f"failures at {bad[:6]}",
        )
    ]


def _fallback_window_spots() -> dict[str, tuple[int, int, int]]:
    """The low-stem zero-window spots: name -> (tensor power k, s, t)."""
    spots: dict[str, tuple[int, int, int]] = {}
    for name, (S, T) in (("nu2", (10, 34)), ("kappa", (10, 42))):
        for k in (1, 2, 3):
            spots[f"{name}.k{k}"] = (k, S + 1 - k, T - 8 * k)
    return spots


LES_MAX_S, LES_MAX_T = 12, 44  # the les chart; the vanishing windows reach t = 48


def _h8_cone_over_a2(args: argparse.Namespace) -> tuple[FreeResolution, FreeComplex]:
    """The A(2) resolution and its cone on h0^3, which the les and
    vanishing-windows suites share: built once per verify run."""
    from .resolution import cone

    if not hasattr(args, "h8_cone"):
        windows_s = max(s for _, s, _ in _fallback_window_spots().values())
        depth = max(_resolution_depth("h8", LES_MAX_S), _resolution_depth("h8v18", windows_s))
        cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        res, _ = resolve_cached("A2", depth, 48, cache_dir, force=args.force, log=_say)
        args.h8_cone = res, cone(res, *H8_CLASS)
    return args.h8_cone


def _suite_vanishing_windows(args: argparse.Namespace) -> list[VerifyItem]:
    """Low-stem d1-target windows on the v1^8 cone must be zero groups."""
    from . import modules
    from .resolution import ext_dim_at

    sel, H8V = _h8v18_cone(*_h8_cone_over_a2(args))
    items: list[VerifyItem] = [
        (
            "vanishing-windows.selection",
            sel.unique,
            f"ambiguity {sel.ambiguity_dim}, candidates {sel.candidate_dim}",
        )
    ]
    if H8V is None:
        return items
    bo1 = modules.bo(1)
    powers = {1: bo1, 2: modules.tensor(bo1, bo1)}
    powers[3] = modules.tensor(powers[2], bo1)
    cache: dict = {}
    # kappa k=1 lands on a populated spot; it anchors the window as a control
    control = ext_dim_at(H8V, powers[1], 10, 34, cache)
    items.append(
        (
            "vanishing-windows.control",
            control == 1,
            f"dim Ext^(10,34)(bo1 (x) cone) = {control}, expected 1",
        )
    )
    for name, (k, s, t) in sorted(_fallback_window_spots().items()):
        if (s, t) == (10, 34):
            continue
        dim = ext_dim_at(H8V, powers[k], s, t, cache)
        items.append(
            (
                f"vanishing-windows.{name}",
                dim == 0,
                f"dim Ext^({s},{t})(bo1^(x{k}) (x) cone) = {dim}, expected 0",
            )
        )
    return items


def _suite_les(args: argparse.Namespace) -> list[VerifyItem]:
    from . import modules
    from .resolution import attaching_action, ext_f2, ext_over_complex, les_consistency

    res, X = _h8_cone_over_a2(args)
    sphere = ext_f2(res, install_products=())
    chart = ext_over_complex(X, modules.trivial(algebra_profile("A2")), "F2", LES_MAX_S, LES_MAX_T)
    theta = attaching_action(sphere, *H8_CLASS)
    report = les_consistency(sphere, chart, theta, *H8_CLASS)
    return [
        (
            "les.h8",
            report.ok,
            f"{report.checked} bidegrees consistent"
            if report.ok
            else f"failures at {list(report.failures[:4])}",
        )
    ]


SUITES: dict[str, Callable[[argparse.Namespace], list[VerifyItem]]] = {
    "oracle": _suite_oracle,
    "splitting": _suite_splitting,
    "bo-sequences": _suite_bo_sequences,
    "bg-lemma": _suite_bg_lemma,
    "vanishing-windows": _suite_vanishing_windows,
    "les": _suite_les,
}
_H8_CONE_SUITES = ("les", "vanishing-windows")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_oracle(max_s: int, max_stem: int) -> subprocess.Popen[str]:
    """``verify oracle`` in a second process; its stdout is piped back and
    its stderr is this process's."""
    import subprocess

    # the child imports the package this process runs, installed or not,
    # and nothing else outside the standard library, so it skips the site
    # hooks (-S)
    root = str(Path(__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-S", "-m", "extforge.cli", "verify", "oracle",
            "--suite-max-s", str(max_s), "--suite-max-stem", str(max_stem)]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)


def _oracle_items(child: subprocess.Popen[str]) -> list[VerifyItem]:
    """The oracle's items, read back from the report its process printed."""
    out, _ = child.communicate()
    if child.returncode not in (0, 1):
        raise SuiteError(f"verify oracle, run in a second process, exited with code {child.returncode}")
    lines = out.splitlines()
    items: list[VerifyItem] = []
    for line in lines[:-1]:
        status, _, rest = line.partition("\t")
        item, _, detail = rest.partition("\t")
        items.append((item, status == "ok", detail))
    # a line that does not parse, or a summary that miscounts, prints back differently
    if _report(items) != lines or child.returncode != (0 if all(ok for _, ok, _ in items) else 1):
        raise SuiteError(
            f"verify oracle, run in a second process, exited with code {child.returncode} "
            f"after {len(lines)} lines that are not its report"
        )
    return items


def _report(results: list[VerifyItem]) -> list[str]:
    """One line per item, then the summary line."""
    failures = sum(1 for _, ok, _ in results if not ok)
    lines = [f"{'ok' if ok else 'FAIL'}\t{item}\t{detail}" for item, ok, detail in results]
    lines.append(f"{'ok' if not failures else 'FAIL'}\tsummary\t{len(results) - failures}/{len(results)} checks passed")
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        names = sorted(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)} or all")
    child = None
    if "oracle" in names:
        bounds = _oracle_bounds(args)  # a bad bound fails before any suite runs
        if len(names) > 1 and _usable_cpus() >= 2:
            # the oracle shares nothing with the other suites, so it takes the second CPU
            child = _start_oracle(*bounds)
            names.remove("oracle")
    elif args.suite_max_s is not None or args.suite_max_stem is not None:
        raise UsageError(
            f"--suite-max-s and --suite-max-stem bound the oracle suite, which verify {args.suite} does not run"
        )
    results: list[VerifyItem] = []
    try:
        # the suites sharing _h8_cone_over_a2 run first, so their pair is
        # released before the rest run
        for n in sorted(names, key=lambda n: n not in _H8_CONE_SUITES):
            if n not in _H8_CONE_SUITES:
                vars(args).pop("h8_cone", None)
            results.extend(SUITES[n](args))
        if child is not None:
            results.extend(_oracle_items(child))
    finally:
        if child is not None:
            child.kill()  # a no-op once the child has exited and been waited for
            child.wait()
            child.stdout.close()
    results.sort(key=lambda r: r[0])
    lines = _report(results)
    print("\n".join(lines))
    return 0 if lines[-1].startswith("ok\t") else 1


# ---------------------------------------------------------------------------
# argument parsing


def _say(msg: str) -> None:
    print(msg, flush=True)


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", default=None, help=f"cache directory (default ${CACHE_ENV_VAR} or ~/.cache/extforge)")
    p.add_argument("--force", action="store_true", help="recompute even on cache hit or corruption")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ext-forge",
        description="Ext charts over finite sub-Hopf algebras of the mod-2 Steenrod algebra.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser("resolve", help="compute or load a cached minimal resolution")
    p_res.add_argument("--algebra", choices=sorted(ALGEBRAS), default="A2")
    p_res.add_argument("--max-s", type=int, required=True)
    p_res.add_argument("--max-t", type=int, required=True)
    _add_cache_flags(p_res)
    p_res.set_defaults(func=cmd_resolve)

    p_ext = sub.add_parser("ext", help="compute a chart for a coefficient descriptor")
    p_ext.add_argument("descriptor", help="e.g. f2, h8, h8v18, bo:1, 'bo:1 ⊗ h8v18', 's^8 bo:2'")
    p_ext.add_argument("--algebra", choices=sorted(ALGEBRAS), default="A2")
    p_ext.add_argument("--max-s", type=int, default=12)
    p_ext.add_argument("--max-t", type=int, default=None)
    p_ext.add_argument("--max-stem", type=int, default=None)
    p_ext.add_argument("--window", default=None, metavar="a..b", help="restrict rendered stems")
    p_ext.add_argument("--format", choices=("tsv", "svg", "json"), default="tsv")
    p_ext.add_argument("--svg", action="store_true", help="also write the SVG rendering")
    p_ext.add_argument("--no-png", action="store_true", help="skip the PNG figure next to the TSV")
    p_ext.add_argument("--out", default=".", help="output directory")
    _add_cache_flags(p_ext)
    p_ext.set_defaults(func=cmd_ext)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help=f"one of {sorted(SUITES)} or all")
    p_ver.add_argument("--suite-max-s", type=int, default=None, help="filtration bound (oracle)")
    p_ver.add_argument("--suite-max-stem", type=int, default=None, help="stem bound (oracle)")
    _add_cache_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_bg = sub.add_parser("bgpoly", help="print a Brown-Gitler polynomial and its summands")
    p_bg.add_argument("index", help="an integer i, or a comma list i1,i2,... for the product")
    p_bg.set_defaults(func=cmd_bgpoly)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 1
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
