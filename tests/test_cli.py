"""Command surface: descriptors, cache entry checks, exit codes."""

import gzip
import hashlib
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from extforge import cli, modules, resolution


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----- descriptor grammar -----


def test_parse_atoms():
    plan = cli.parse_descriptor("f2")
    assert plan.cell is None and plan.factors == (cli.Factor("f2", None, 0),)
    plan = cli.parse_descriptor("bo:3")
    assert plan.factors == (cli.Factor("bo", 3, 0),)
    plan = cli.parse_descriptor("h8v18")
    assert plan.cell == "h8v18" and plan.factors == ()


def test_parse_tensor_and_suspension():
    plan = cli.parse_descriptor("bo:1 ⊗ h8v18")
    assert plan.cell == "h8v18"
    assert plan.factors == (cli.Factor("bo", 1, 0),)
    plan = cli.parse_descriptor("s^8 bo:2 * tmfbg:1")
    assert plan.factors == (cli.Factor("bo", 2, 8), cli.Factor("tmfbg", 1, 0))


def test_parse_rejects_garbage():
    for bad in ("", "nope", "bo:x", "bo:-1", "h8 ⊗ h8v18", "s^2 h8", "s^ bo:1", "s^-3 bo:1"):
        with pytest.raises(cli.UsageError):
            cli.parse_descriptor(bad)


def test_slug_is_filesystem_safe():
    assert cli.parse_descriptor("bo:1 ⊗ h8v18").slug == "bo-1-h8v18"


# ----- cache store -----


def _key(rest):
    """Cache key of a resolution entry: format version, algebra and bounds."""
    return f"res-v{resolution.RESOLUTION_FORMAT_VERSION}-{rest}"


def test_resolve_cache_hit_and_corruption(tmp_path, capsys):
    code, out, _ = run(
        ["resolve", "--algebra", "A1", "--max-s", "5", "--max-t", "12", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0 and "computed and cached" in out
    code, out, _ = run(
        ["resolve", "--algebra", "A1", "--max-s", "5", "--max-t", "12", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0 and "cache hit" in out

    payload = tmp_path / f"{_key('A1-s5-t12')}.json.gz"
    payload.write_bytes(payload.read_bytes() + b"x")
    code, out, err = run(
        ["resolve", "--algebra", "A1", "--max-s", "5", "--max-t", "12", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1 and "corrupt cache entry" in err and "--force" in err

    code, out, _ = run(
        ["resolve", "--algebra", "A1", "--max-s", "5", "--max-t", "12", "--cache-dir", str(tmp_path), "--force"],
        capsys,
    )
    assert code == 0 and "computed and cached" in out


def _flip_mid_stream(raw):
    mid = len(raw) // 2
    return raw[:mid] + bytes([raw[mid] ^ 0x01]) + raw[mid + 1 :]


def _flip_crc(raw):
    # the trailer is CRC-32 then length, four bytes each
    return raw[:-8] + bytes([raw[-8] ^ 0x01]) + raw[-7:]


@pytest.mark.parametrize(
    "corrupt",
    [_flip_mid_stream, lambda raw: raw[: len(raw) // 2], lambda raw: b"", _flip_crc],
    ids=["flipped-deflate-byte", "truncated", "empty", "flipped-crc"],
)
def test_resolve_reports_a_corrupt_payload(tmp_path, capsys, corrupt):
    args = ["resolve", "--algebra", "A1", "--max-s", "4", "--max-t", "10", "--cache-dir", str(tmp_path)]
    assert run(args, capsys)[0] == 0
    payload = tmp_path / f"{_key('A1-s4-t10')}.json.gz"
    payload.write_bytes(corrupt(payload.read_bytes()))
    code, _, err = run(args, capsys)
    assert code == 1 and "corrupt cache entry" in err
    assert _key("A1-s4-t10") in err and "--force" in err
    code, out, _ = run(args + ["--force"], capsys)
    assert code == 0 and "computed and cached" in out
    code, out, _ = run(args, capsys)
    assert code == 0 and "cache hit" in out


def _rewrite_payload(cache_dir, key, edit):
    """Rewrite a cache entry's payload through ``edit`` as a well-formed gzip
    file, so that only the loader's own checks can reject it."""
    payload = cache_dir / f"{key}.json.gz"
    doc = json.loads(gzip.decompress(payload.read_bytes()))
    edit(doc)
    payload.write_bytes(cli._gzip_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":"))))


def _bump_version(doc):
    doc["format_version"] = resolution.RESOLUTION_FORMAT_VERSION + 1


def _add_unit_coefficient(doc):
    # a level-s generator hit by the unit on a level-(s-1) generator of its
    # own degree: a well-formed payload that is not minimal
    gens = doc["gens"]
    s, i, h = next(
        (s, i, h)
        for s in range(1, len(gens))
        for i, (t, _) in enumerate(gens[s])
        for h, (t_prev, _) in enumerate(gens[s - 1])
        if t == t_prev
    )
    doc["diff"][s][i].append([h, [[]]])


def _raise_max_t(doc):
    # a whole, minimal payload whose bounds differ from its key's
    doc["max_t"] += 1


def test_entry_with_earlier_sidecars_still_hits(tmp_path, capsys):
    # earlier versions wrote the same payload next to a manifest with its
    # SHA-256 and a lock file; both are ignored now
    args = ["resolve", "--algebra", "A1", "--max-s", "3", "--max-t", "8", "--cache-dir", str(tmp_path)]
    assert run(args, capsys)[0] == 0
    key = _key("A1-s3-t8")
    payload = tmp_path / f"{key}.json.gz"
    manifest = {
        "algebra": "A[2, 1]",
        "content_hashes": {payload.name: hashlib.sha256(payload.read_bytes()).hexdigest()},
        "exponents": [2, 1],
        "format_version": 1,
        "max_s": 3,
        "max_t": 8,
        "producer": "0.1.0",
        "self_map_selections": {},
    }
    (tmp_path / f"{key}.manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    (tmp_path / ".lock").write_text("")
    code, out, _ = run(args, capsys)
    assert code == 0 and "cache hit" in out


def _package_env():
    """The environment of a subprocess that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_concurrent_writers_leave_one_whole_entry(tmp_path):
    env = _package_env()
    argv = [sys.executable, "-m", "extforge.cli", "resolve", "--algebra", "A1",
            "--max-s", "3", "--max-t", "8", "--cache-dir", str(tmp_path)]
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for _ in range(3)]
    outcomes = [(p.communicate(timeout=120)[1], p.returncode) for p in procs]
    assert all(code == 0 for _, code in outcomes), outcomes
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0 and "cache hit" in done.stdout, done.stdout + done.stderr
    assert sorted(os.listdir(tmp_path)) == [f"{_key('A1-s3-t8')}.json.gz"]


@pytest.mark.parametrize("edit", [_bump_version, _add_unit_coefficient, _raise_max_t])
def test_resolve_rejects_an_entry_that_does_not_load(tmp_path, capsys, edit):
    args = ["resolve", "--algebra", "A1", "--max-s", "4", "--max-t", "10", "--cache-dir", str(tmp_path)]
    assert run(args, capsys)[0] == 0
    _rewrite_payload(tmp_path, _key("A1-s4-t10"), edit)
    code, _, err = run(args, capsys)
    assert code == 1 and _key("A1-s4-t10") in err and "--force" in err
    code, out, _ = run(args + ["--force"], capsys)
    assert code == 0 and "computed and cached" in out
    assert run(args, capsys)[0] == 0


def test_resolve_misses_cleanly_after_a_format_version_bump(tmp_path, capsys, monkeypatch):
    args = ["resolve", "--algebra", "A1", "--max-s", "4", "--max-t", "10", "--cache-dir", str(tmp_path)]
    assert run(args, capsys)[0] == 0
    assert (tmp_path / f"{_key('A1-s4-t10')}.json.gz").exists()
    bumped = resolution.RESOLUTION_FORMAT_VERSION + 1
    monkeypatch.setattr(resolution, "RESOLUTION_FORMAT_VERSION", bumped)
    code, out, _ = run(args, capsys)
    assert code == 0 and f"computed and cached: res-v{bumped}-A1-s4-t10" in out
    code, out, _ = run(args, capsys)
    assert code == 0 and f"cache hit: res-v{bumped}-A1-s4-t10" in out


_ENGINE = {f"extforge.{m}" for m in ("gf2", "milnor", "modules", "resolution", "charts", "cobar", "bgpoly")}
_RESOLVER = {"extforge.gf2", "extforge.milnor", "extforge.modules", "extforge.resolution", "gzip"}
# command -> the modules of _ENGINE, gzip and concurrent.futures it may import
_COMMAND_IMPORTS = [
    (["--version"], set()),
    (["bgpoly", "6"], {"extforge.bgpoly"}),
    (["verify", "bg-lemma"], {"extforge.bgpoly"}),
    (["resolve", "--algebra", "A1", "--max-s", "3", "--max-t", "8"], _RESOLVER),
    (["ext", "bo:1", "--algebra", "A1", "--max-s", "3", "--max-stem", "4", "--no-png"], _RESOLVER | {"extforge.charts"}),
    # JSON renders nothing, so it loads no chart renderer
    (["ext", "bo:1", "--algebra", "A1", "--max-s", "3", "--max-stem", "4", "--format", "json"], _RESOLVER),
]


def test_numpy_stays_out_of_the_package(tmp_path):
    paths = {"resolve": ["--cache-dir", str(tmp_path)], "ext": ["--cache-dir", str(tmp_path), "--out", str(tmp_path)]}
    for argv, allowed in _COMMAND_IMPORTS:
        # -X importtime lists every module the command imports on stderr
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "extforge.cli", *argv, *paths.get(argv[0], [])],
            env=_package_env(),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0 and done.stdout.strip(), (argv, done.stderr)
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        roots = {name.split(".")[0] for name in imported}
        assert "extforge" in roots and "numpy" not in roots, argv
        # the cache needs neither OpenSSL's hashes nor file locks
        assert not roots & {"hashlib", "_hashlib", "fcntl"}, (argv, sorted(roots))
        # each command loads only the engine modules it runs and a thread
        # pool only for --jobs > 1; records are NamedTuples and plain
        # classes, so no command compiles dataclasses (with inspect and ast),
        # and no command needs fractions
        forbidden = (_ENGINE | {"gzip", "concurrent.futures"}) - allowed
        assert not imported & forbidden, (argv, sorted(imported & forbidden))
        assert not imported & {"dataclasses", "inspect", "fractions"}, (argv, sorted(imported))


def test_cache_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path / "envcache"))
    code, out, _ = run(["resolve", "--algebra", "A1", "--max-s", "3", "--max-t", "8"], capsys)
    assert code == 0
    assert (tmp_path / "envcache" / f"{_key('A1-s3-t8')}.json.gz").exists()


# ----- ext command -----


def test_ext_f2_over_the_full_algebra_needs_no_module(tmp_path, capsys):
    code, out, _ = run(
        ["ext", "f2", "--algebra", "A", "--max-s", "3", "--max-stem", "4", "--no-png",
         "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 0, out
    assert (tmp_path / "out" / "ext-f2-A-s3-t7.tsv").exists()


@pytest.mark.parametrize(
    "descriptor, algebra, message",
    [
        ("bo:1", "A", "finite profile"),
        ("h8", "A", "finite profile"),
        ("a2qa1", "A1", "pass --algebra A2"),
    ],
)
def test_ext_rejects_coefficients_the_algebra_cannot_carry(tmp_path, capsys, descriptor, algebra, message):
    cache = tmp_path / "cache"
    code, _, err = run(
        ["ext", descriptor, "--algebra", algebra, "--max-s", "3", "--max-stem", "4", "--no-png",
         "--cache-dir", str(cache), "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 2 and err.startswith("error: ") and message in err, err
    # rejected before any resolution is computed
    assert not cache.exists() or not os.listdir(cache)


def test_ext_writes_tsv_and_png(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        [
            "ext", "f2", "--algebra", "A1", "--max-s", "6", "--max-stem", "12",
            "--cache-dir", str(tmp_path), "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    tsv = out_dir / "ext-f2-A1-s6-t18.tsv"
    assert tsv.exists()
    assert (out_dir / "ext-f2-A1-s6-t18.png").exists()
    assert tsv.read_text().startswith("stem\tfiltration\tdim\tlabels\n")


def test_ext_svg_and_json_formats(tmp_path, capsys):
    args = [
        "ext", "f2", "--algebra", "A1", "--max-s", "5", "--max-stem", "10",
        "--cache-dir", str(tmp_path), "--out", str(tmp_path), "--no-png",
    ]
    assert run(args + ["--format", "svg"], capsys)[0] == 0
    assert run(args + ["--format", "json"], capsys)[0] == 0
    svg = (tmp_path / "ext-f2-A1-s5-t15.svg").read_text()
    assert svg.startswith("<?xml")
    doc = json.loads((tmp_path / "ext-f2-A1-s5-t15.json").read_text())
    assert doc["coefficients"] == "F2" and doc["dims"]


def test_ext_warm_cache_repeats_cold_output(tmp_path, capsys):
    args = [
        "ext", "h8v18", "--algebra", "A2", "--max-s", "4", "--max-t", "30",
        "--format", "json", "--cache-dir", str(tmp_path / "cache"),
    ]
    name = "ext-h8v18-A2-s4-t30.json"
    code, out, _ = run(args + ["--out", str(tmp_path / "cold")], capsys)
    assert code == 0 and "computed and cached" in out
    # a fresh process would start without multiplication tables
    resolution._mul_cache.clear()
    code, out, _ = run(args + ["--out", str(tmp_path / "warm")], capsys)
    assert code == 0 and "cache hit" in out
    cold = (tmp_path / "cold" / name).read_bytes()
    assert json.loads(cold)["self_map_selections"] == {"h8v18": [1]}
    assert (tmp_path / "warm" / name).read_bytes() == cold
    # the cone pipeline resolved as deep as the v1^8 selection reads, which is
    # the depth a plain chart of filtration 11 resolves to: they share the entry
    key = f"res-v{resolution.RESOLUTION_FORMAT_VERSION}-A2-s12-t30"
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [f"{key}.json.gz"]
    code, out, _ = run(
        ["ext", "f2", "--algebra", "A2", "--max-s", "11", "--max-t", "30", "--no-png",
         "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "f2")],
        capsys,
    )
    assert code == 0 and f"cache hit: {key}" in out


@pytest.mark.parametrize(
    "descriptor, old_margin, bounds", [("h8", 3, (2, 5)), ("h8v18", 10, (3, 4))]
)
def test_cone_charts_match_the_deeper_resolutions(
    descriptor, old_margin, bounds, tmp_path, capsys, monkeypatch
):
    """Cone charts over the derived depth are byte-identical to charts over
    the deeper resolutions once used (max_s + 3 for h8, + 10 for h8v18)."""
    real = cli.resolve_cached
    for max_s in bounds:
        for label in ("derived", "deeper"):
            with monkeypatch.context() as m:
                if label == "deeper":
                    m.setattr(
                        cli,
                        "resolve_cached",
                        lambda name, _depth, max_t, *a, **k: real(name, max_s + old_margin, max_t, *a, **k),
                    )
                for fmt in ("json", "tsv"):
                    code, out, _ = run(
                        ["ext", descriptor, "--algebra", "A2", "--max-s", str(max_s), "--max-t", "30",
                         "--format", fmt, "--no-png", "--cache-dir", str(tmp_path / "cache"),
                         "--out", str(tmp_path / label)],
                        capsys,
                    )
                    assert code == 0
            depth = max_s + old_margin if label == "deeper" else cli._resolution_depth(descriptor, max_s)
            assert f"-A2-s{depth}-t30" in out
        assert cli._resolution_depth(descriptor, max_s) < max_s + old_margin
    written = sorted((tmp_path / "derived").iterdir())
    assert len(written) == 2 * len(bounds)
    for path in written:
        assert path.read_bytes() == (tmp_path / "deeper" / path.name).read_bytes(), path.name


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["bgpoly", "-1"], 2, "non-negative"),
        (["bgpoly", "1,0"], 2, "positive"),
        (["verify", "oracle", "--suite-max-s", "8"], 2, "--suite-max-s <= 7"),
        (["verify", "oracle", "--suite-max-s", "-1"], 2, "0 <= --suite-max-s"),
        (["ext", "h8", "--max-s", "0", "--max-t", "6", "--no-png"], 0, ""),
        (["ext", "h8", "--max-t", "2", "--no-png"], 2, "--max-t >= 3"),
        (["ext", "h8v18", "--max-s", "3", "--max-t", "20", "--no-png"], 2, "--max-t >= 30"),
        # nothing below t = 0 is resolved, so s^-3 would cut bo:1's stem-0 tower
        (["ext", "s^-3 bo:1", "--algebra", "A1", "--max-s", "3", "--max-stem", "6"], 2,
         "must be non-negative"),
        (["ext", "f2", "--algebra", "A1", "--max-s", "3", "--jobs", "0"], 2, "--jobs must be at least 1"),
        (["ext", "f2", "--algebra", "A1", "--max-s", "3", "--jobs", "-4"], 2, "--jobs must be at least 1"),
        # the window applies to rendered charts; the JSON document is always whole
        (["ext", "f2", "--algebra", "A1", "--max-s", "6", "--max-stem", "12", "--window", "3..9",
          "--format", "json"], 2, "a JSON document holds the whole chart"),
    ],
    ids=["bgpoly-negative", "bgpoly-zero-entry", "oracle-s-over-budget", "oracle-s-negative",
         "h8-s0", "h8-t2", "h8v18-t20", "negative-suspension", "jobs-zero", "jobs-negative",
         "window-json"],
)
def test_bad_bounds_exit_cleanly(argv, code, message, tmp_path, capsys):
    """Each input either runs or is a usage error (exit 2, no traceback)
    raised before any resolution is cached."""
    cache = tmp_path / "cache"
    if argv[0] == "ext":
        argv = argv + ["--cache-dir", str(cache), "--out", str(tmp_path)]
    got, _, err = run(argv, capsys)
    assert got == code
    assert message in err and "Traceback" not in err
    if code == 2:
        assert not cache.exists() or not os.listdir(cache)


def test_resolve_takes_no_jobs(tmp_path, capsys):
    # only ext and verify have work to spread over threads
    with pytest.raises(SystemExit) as exc:
        cli.main(["resolve", "--algebra", "A1", "--max-s", "2", "--max-t", "5", "--jobs", "3",
                  "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 3" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


# sha256 of one-cell module charts as written before these charts took
# ranks only and left their class representatives to be built on demand
PINNED_MODULE_CHARTS = [
    (["bo:1", "--format", "json"], "ext-bo-1-A2-s12-t42.json",
     "22afc6fd44d7e7f42efe924ed62c48c1a18762fdce5c19d09f8ea0d1c4bcd2e8"),
    (["bo:1 * bo:1", "--max-s", "8", "--max-stem", "20", "--no-png"], "ext-bo-1-bo-1-A2-s8-t28.tsv",
     "880fd2b9be4812d3389dd862cb11c1474a268e057a1cca2d88da9be2c31c6cd3"),
]


@pytest.mark.parametrize("argv, name, digest", PINNED_MODULE_CHARTS, ids=["bo1-json", "bo1-squared-tsv"])
def test_module_chart_bytes_are_pinned(argv, name, digest, tmp_path, capsys):
    code, _, _ = run(["ext", *argv, "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_v18_selection_needs_its_window_resolved():
    for bounds, message in (((11, 30), "through level 12"), ((12, 29), "--max-t >= 30")):
        res = resolution.minimal_resolution(cli.algebra_profile("A2"), *bounds)
        with pytest.raises(cli.UsageError, match=message):
            cli._h8v18_cone(res, resolution.cone(res, *cli.H8_CLASS))


def _png_scanlines(data: bytes) -> bytes:
    """The zlib-decompressed IDAT stream of a PNG file: its filtered scanlines,
    the same for every zlib build."""
    idat, pos = [], 8
    while pos < len(data):
        length = int.from_bytes(data[pos : pos + 4], "big")
        if data[pos + 4 : pos + 8] == b"IDAT":
            idat.append(data[pos + 8 : pos + 8 + length])
        pos += 12 + length
    return zlib.decompress(b"".join(idat))


# sha256 of the windowed f2 chart over A(1): the TSV, the SVG and the PNG's
# decoded scanlines, all three clipped to stems 3..9
PINNED_WINDOW_CHART = {
    "tsv": "9900a921cfcf08f5da7b03a7d75d6d955e05a67437994f90b592c02f19e7d741",
    "svg": "eff5c4d5dcd5ea4ec5186ec5214122231d5df15ea2578c3815a1717fd15b0f49",
    "png": "0426f0203fb27700a8fb9d01f304b5acae95ddbedc1389489936d80dbf86f6e4",
}


def test_ext_window_filter(tmp_path, capsys):
    code, out, _ = run(
        [
            "ext", "f2", "--algebra", "A1", "--max-s", "6", "--max-stem", "12",
            "--window", "3..9", "--cache-dir", str(tmp_path), "--out", str(tmp_path),
            "--svg",
        ],
        capsys,
    )
    assert code == 0
    base = tmp_path / "ext-f2-A1-s6-t18-w3-9"
    rows = base.with_suffix(".tsv").read_text().splitlines()[1:]
    stems = [int(r.split("\t")[0]) for r in rows]
    assert stems and all(3 <= v <= 9 for v in stems)
    classes = sum(int(r.split("\t")[2]) for r in rows)
    assert f"chart f2: {classes} classes in {len(rows)} bidegrees" in out
    digests = {
        "tsv": base.with_suffix(".tsv").read_bytes(),
        "svg": base.with_suffix(".svg").read_bytes(),
        "png": _png_scanlines(base.with_suffix(".png").read_bytes()),
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()} == PINNED_WINDOW_CHART


def test_ext_window_beyond_bound_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        [
            "ext", "f2", "--algebra", "A1", "--max-s", "4", "--max-stem", "8",
            "--window", "0..20", "--cache-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 2 and "exceeds" in err


def test_ext_jobs_identical_output(tmp_path, capsys):
    base = [
        "ext", "bo:1 * bo:1", "--algebra", "A1", "--max-s", "5", "--max-stem", "10",
        "--cache-dir", str(tmp_path), "--no-png",
    ]
    assert run(base + ["--out", str(tmp_path / "j1"), "--jobs", "1"], capsys)[0] == 0
    assert run(base + ["--out", str(tmp_path / "j4"), "--jobs", "4"], capsys)[0] == 0
    name = "ext-bo-1-bo-1-A1-s5-t15.tsv"
    assert (tmp_path / "j1" / name).read_text() == (tmp_path / "j4" / name).read_text()


# ----- bgpoly command -----


def test_bgpoly_output(capsys):
    code, out, _ = run(["bgpoly", "2"], capsys)
    assert code == 0
    # f_2 = t x + s t^2: summands S^8 bo_1 and S^17 F2 with shift 1
    assert out.splitlines() == [
        "f_2 = t x + s t^2",
        "  summand S^8 bo_1^(x1): homological shift 0, multiplicity 1, bottom bidegree (0, 8)",
        "  summand S^17 F2: homological shift 1, multiplicity 1, bottom bidegree (1, 18)",
    ]
    code, out, _ = run(["bgpoly", "3"], capsys)
    assert out.splitlines()[0] == "f_3 = t x^2"
    code, out, _ = run(["bgpoly", "1,1"], capsys)
    assert out.splitlines()[0] == "f_{1,1} = x^2"
    assert "summand" in out


def test_bgpoly_bad_index(capsys):
    code, _, err = run(["bgpoly", "two"], capsys)
    assert code == 2 and "error:" in err


# ----- verify command -----


def test_verify_fast_suites(capsys):
    for suite in ("bg-lemma", "splitting", "bo-sequences"):
        code, out, _ = run(["verify", suite], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(ln.startswith("ok\t") for ln in lines)
        assert lines[-1].startswith("ok\tsummary\t")


def test_verify_bo_sequences_same_output_for_every_job_count(capsys):
    outputs = []
    for jobs in ("1", "2"):
        modules._bo_poincare.cache_clear()
        code, out, _ = run(["verify", "bo-sequences", "--jobs", jobs], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_unknown_suite(capsys):
    code, _, err = run(["verify", "nonsense"], capsys)
    assert code == 2 and "unknown suite" in err


def test_verify_oracle_small_window(capsys):
    code, out, _ = run(
        ["verify", "oracle", "--suite-max-s", "3", "--suite-max-stem", "6"], capsys
    )
    assert code == 0
    assert "oracle.A1.trivial" in out and "oracle.A2.bo1" in out


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_verify_all_lines_are_pinned_and_resolve_a2_once(jobs, tmp_path, capsys, monkeypatch):
    # the benchmark's verify-all workload records the digest of its verify lines
    design = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "design.json").read_text())
    spec = design["workloads"]["verify-all"]
    resolved = []
    real = cli.resolve_cached
    monkeypatch.setattr(cli, "resolve_cached", lambda *a, **kw: resolved.append(a[:3]) or real(*a, **kw))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # --jobs 4 runs the suites in threads: switch between them often
    try:
        code, out, _ = run([*spec["argv"], "--jobs", jobs, "--cache-dir", str(tmp_path)], capsys)
    finally:
        sys.setswitchinterval(interval)
    assert code == 0
    lines = "".join(ln for ln in out.splitlines(keepends=True) if ln.startswith(("ok\t", "FAIL\t")))
    assert hashlib.sha256(lines.encode()).hexdigest() == spec["sha256"]
    # les and vanishing-windows read one A(2) resolution, resolved once
    assert resolved == [("A2", 14, 48)]
    assert len(list(tmp_path.glob(_key("A2-*.json.gz")))) == 1


def test_verify_all_releases_the_shared_cone_before_the_oracle(tmp_path, capsys, monkeypatch):
    seen = []

    def oracle(args):
        seen.append(hasattr(args, "h8_cone"))
        return [("oracle.stub", True, "")]

    monkeypatch.setitem(cli.SUITES, "oracle", oracle)
    code, out, _ = run(["verify", "all", "--jobs", "1", "--cache-dir", str(tmp_path)], capsys)
    assert code == 0 and "ok\tles.h8\t" in out and "ok\tvanishing-windows.control\t" in out
    assert seen == [False]
