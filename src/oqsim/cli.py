"""Experiment runner: config parsing, trajectory CSVs, SVG plots, tables.

Configs are flat ``key = value`` text with optional ``[experiment]`` and
``[outputs]`` sections; unknown keys are rejected with their line number.
Angles accept fractions of pi (``pi/10``, ``2pi/3``) and plain decimals.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import analysis, channels, circuit, engine
from .qmath import DensityMatrix, Wire, layout_dim

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_OUTPUT = 4


class ConfigError(Exception):
    """A config that cannot run; ``where`` (``path:line`` or ``path``) prefixes the message."""

    def __init__(self, message: str, where=None):
        super().__init__(message if where is None else f"{where}: {message}")


_PI_FORM = re.compile(r"^(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Angle from ``pi/10``-style fractions or a decimal literal."""
    s = str(text).strip().lower().replace(" ", "").replace("*", "")
    m = _PI_FORM.match(s)
    if m:
        coef = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ConfigError(f"angle {text!r} divides by zero")
        return coef * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None


# named initial state -> the engine observable that projects onto it
_NAMED_STATES = {name: f"p{s}" for s in "01+-" for name in (s, f"|{s}>")}


def parse_initial(text: str) -> DensityMatrix:
    """Named ket (|0>, |1>, |+>, |->) or explicit matrix rows ``a,b;c,d``."""
    s = str(text).strip()
    layout = (Wire("q"),)
    if s in _NAMED_STATES:
        return DensityMatrix(engine.projector_observable(_NAMED_STATES[s]).projector, layout)
    if ";" in s:
        try:
            rows = [
                [complex(cell.strip().replace(" ", "")) for cell in row.split(",")]
                for row in s.split(";")
            ]
            return DensityMatrix(np.array(rows, dtype=complex), layout)
        except ValueError as exc:
            raise ConfigError(f"cannot parse initial state {text!r}: {exc}") from None
    raise ConfigError(
        f"unknown initial state {text!r}; expected |0>, |1>, |+>, |-> or matrix rows"
    )


_CHANNELS = ("amplitude-damping", "dephasing", "pauli", "custom-file")
_MODES = ("markovian", "non-markovian", "sequential")
_ARMS = dict(zip(_MODES, ("markovian", "nonmarkovian", "sequential")))  # in file names

PRESETS = {  # figure -> config keys, after the paper's figures 6, 7 and 8
    fig: dict(zip(("channel", "theta", "thetas", "k", "steps", "initial", "observables"), row))
    for fig, row in {
        "fig6": ("amplitude-damping", "pi/10", "pi/10, 2pi/3, 5pi/6", "3", "50", "|1>", "p1"),
        "fig7": ("dephasing", "pi/5", "pi/5, pi/4, pi/2", "3", "100", "|+>", "p+"),
        "fig8": ("amplitude-damping", "pi/8", "pi/8, 5pi/6, pi", "3", "50", "|1>", "p1"),
    }.items()
}


def _scalar(cast, noun):
    def parse(key, text):
        try:
            return cast(text)
        except ValueError:
            raise ConfigError(f"{key} must be {noun}, got {text!r}") from None

    return parse


def _output_path(key, text):
    if not text:
        raise ConfigError(f"{key} must name a file")
    return text


def _observable_names(key, text):
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise ConfigError("observables must name at least one of p0, p1, p+, p-")
    for i, n in enumerate(names):
        engine.projector_observable(n)
        if n in names[:i]:
            raise ConfigError(f"observable {n!r} is named twice")
    return names


# config key -> (help of its flag, parse(key, text) for a typed key), in --help order.
# The flag is --key with "-" for "_", but circuit's is --dump-circuit.  A ConfigError
# or ValueError that parse raises names the key's origin.
_KEYS = {
    "preset": ("builtin parameter set", None),
    "channel": (" | ".join(_CHANNELS), None),
    "mode": (" | ".join(_MODES), None),
    "theta": ("one-step angle, e.g. pi/10", lambda key, text: parse_angle(text)),
    "thetas": (
        "comma-separated memory angles",
        lambda key, text: tuple(parse_angle(t) for t in map(str.strip, text.split(",")) if t),
    ),
    "k": ("memory order", _scalar(int, "an integer")),
    "steps": ("number of steps", _scalar(int, "an integer")),
    "initial": (
        "|0>, |1>, |+>, |-> or matrix rows a,b;c,d", lambda key, text: parse_initial(text)
    ),
    "observables": ("comma-separated from p0,p1,p+,p-", _observable_names),
    "px": ("pauli X probability", _scalar(float, "a number")),
    "py": ("pauli Y probability", _scalar(float, "a number")),
    "pz": ("pauli Z probability", _scalar(float, "a number")),
    "channel_file": ("custom channel spec (JSON)", None),
    "csv": ("trajectory CSV output path", _output_path),
    "svg": ("SVG line-plot output path", _output_path),
    "circuit": ("step circuit dump output path", _output_path),
}
_SECTIONS = ("experiment", "outputs")


@dataclass
class ExperimentConfig:
    channel: str
    modes: tuple[str, ...]          # one mode, or both arms for a preset
    label: str
    steps: int
    initial: DensityMatrix
    observables: tuple[str, ...]
    theta: float | None = None
    thetas: tuple[float, ...] | None = None
    k: int | None = None
    px: float = 0.0
    py: float = 0.0
    pz: float = 0.0
    channel_file: str | None = None
    csv: str | None = None
    svg: str | None = None
    circuit: str | None = None


def _config_key(name: str) -> str:
    """Config key of a file key or flag dest: lower case, "_" for "-", dump_circuit as circuit."""
    key = name.strip().lower().replace("-", "_")
    return "circuit" if key == "dump_circuit" else key


def _read_keyvalues(path) -> dict:
    """Raw key -> (value, "path:line") mapping with strict key checking."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from None
    out = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        where = f"{path}:{ln}"
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", where)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", where)
        key, _, value = line.partition("=")
        key = _config_key(key)
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", where)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", where)
        out[key] = (value, where)
    return out


# steps, initial state and observables of a run that does not name them
_CHANNEL_DEFAULTS = {"dephasing": {"steps": "100", "initial": "|+>", "observables": "p+"}}
_DEFAULTS = {"steps": "50", "initial": "|1>", "observables": "p1"}


def _build_config(raw: dict, path=None) -> ExperimentConfig:
    """Validate a raw key -> (value, origin) mapping; a flag's origin is None."""

    def fail(key, message):
        raise ConfigError(message, raw[key][1] if key in raw else path)

    def merge(defaults, by):  # defaults take the origin of the key that brought them in
        for key, value in defaults.items():
            raw.setdefault(key, (value, raw[by][1]))

    preset = raw["preset"][0] if "preset" in raw else None
    if preset is not None:
        if preset not in PRESETS:
            fail("preset", f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
        merge(PRESETS[preset], "preset")

    if "channel" not in raw:
        fail("channel", "missing required key 'channel'")
    channel = raw["channel"][0]
    if channel not in _CHANNELS:
        fail("channel", f"unknown channel {channel!r}; expected one of {_CHANNELS}")
    merge(_CHANNEL_DEFAULTS.get(channel, _DEFAULTS), "channel")

    if preset is not None and "mode" not in raw:
        modes = ("markovian", "non-markovian")
    else:
        if "mode" not in raw:
            fail("mode", "missing required key 'mode'")
        mode = raw["mode"][0]
        if mode not in _MODES:
            fail("mode", f"unknown mode {mode!r}; expected one of {_MODES}")
        modes = (mode,)

    values = {}
    for key, (_, parse) in _KEYS.items():
        if parse is not None and key in raw:
            try:
                values[key] = parse(key, raw[key][0])
            except (ConfigError, ValueError) as exc:
                fail(key, str(exc))

    if "markovian" in modes and "theta" not in values:
        fail("theta", "mode markovian requires 'theta'")
    if "non-markovian" in modes:
        if "thetas" not in values:
            fail("thetas", "mode non-markovian requires 'thetas'")
        thetas = values["thetas"]
        k = values.setdefault("k", len(thetas))
        if k < 2:
            fail("k", f"mode non-markovian requires k >= 2, got {k}")
        if len(thetas) != k:
            fail("thetas", f"'thetas' has {len(thetas)} angles but k = {k}")
    if "sequential" in modes and channel not in ("pauli", "custom-file"):
        fail("mode", "mode sequential requires channel pauli or custom-file")
    if channel in ("pauli", "custom-file") and modes != ("sequential",):
        fail("channel", f"channel {channel} requires mode sequential")
    if channel == "custom-file" and "channel_file" not in raw:
        fail("channel_file", "channel custom-file requires 'channel_file'")
    if values["steps"] < 1:
        fail("steps", f"steps must be >= 1, got {values['steps']}")

    return ExperimentConfig(
        channel=channel,
        modes=modes,
        label=preset if preset is not None else f"{channel}-{modes[0]}",
        **values,
        channel_file=raw["channel_file"][0] if "channel_file" in raw else None,
    )


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file."""
    return _build_config(_read_keyvalues(path), path)


class OutputError(Exception):
    """An output file could not be written."""


# mkstemp creates files with mode 0600; outputs get the mode open() would give.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def _atomic_write(path, text: str):
    """Write via a unique temp file beside ``path`` (no race between writers), then rename."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
                fh.write(text)
            os.replace(tmp, path)
        except OSError:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_csv(path, traj: engine.Trajectory):
    lines = ["step,observable,value,trace,purity"]
    for rec in traj.records:
        for name in traj.observable_names:
            lines.append(
                f"{rec.step},{name},{rec.values[name]!r},{rec.trace!r},{rec.purity!r}"
            )
    _atomic_write(path, "\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def write_svg(path, series: dict, steps: int, title: str):
    """Static line plot: one polyline per labelled series, values in [0, 1]."""
    width, height, margin = 640, 440, 56

    def x(n):
        return margin + (width - 2 * margin) * (n / max(steps, 1))

    def y(v):
        return height - margin - (height - 2 * margin) * min(max(v, 0.0), 1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for tick in range(0, 11, 2):
        v = tick / 10.0
        parts.append(
            f'<text x="{margin - 8}" y="{y(v) + 4:.1f}" text-anchor="end" '
            f'font-size="10">{v:.1f}</text>'
        )
    for i, (name, values) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = " ".join(f"{x(n):.2f},{y(v):.2f}" for n, v in enumerate(values))
        parts.append(f'<polyline fill="none" stroke="{color}" points="{points}"/>')
        parts.append(
            f'<text x="{width - margin - 4}" y="{margin + 14 * (i + 1)}" '
            f'text-anchor="end" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


def _sequential_channel(cfg: ExperimentConfig) -> channels.KrausChannel:
    if cfg.channel == "pauli":
        return channels.pauli_channel(cfg.px, cfg.py, cfg.pz)
    try:
        return channels.load_channel(cfg.channel_file)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load channel file {cfg.channel_file!r}: {exc}") from exc


def _build_arm(cfg: ExperimentConfig, mode: str):
    """Returns (step circuit, method, k, l), the last three printed above its resource report."""
    if mode == "markovian":
        step = circuit.build_markovian_step(cfg.channel, cfg.theta)
        return step, "direct-dilation", 1, 2
    if mode == "non-markovian":
        mem = circuit.MemorySpec(cfg.k, cfg.thetas)
        step = circuit.build_nonmarkovian_step(cfg.channel, mem)
        return step, "direct-dilation", cfg.k, 2
    ch = _sequential_channel(cfg)
    return circuit.build_sequential_step(ch), "sequential", 1, len(ch)


def _arm_path(base: str | None, default_stem: str, arm: str, many: bool, ext: str):
    stem = default_stem if base is None else base.removesuffix(ext)
    return f"{stem}_{arm}{ext}" if many else (base or f"{stem}{ext}")


def _output_paths(cfg: ExperimentConfig) -> dict:
    """Every file a config writes, keyed ("csv" | "circuit", arm) or ("svg", None)."""
    many = len(cfg.modes) > 1
    paths = {}
    for arm in (_ARMS[mode] for mode in cfg.modes):
        paths["csv", arm] = _arm_path(cfg.csv, cfg.label, arm, many, ".csv")
        if cfg.circuit is not None:
            paths["circuit", arm] = _arm_path(cfg.circuit, cfg.label, arm, many, ".circuit")
    if cfg.svg is not None:
        paths["svg", None] = cfg.svg if cfg.svg.endswith(".svg") else f"{cfg.svg}.svg"
    return paths


def _resource_comparison_table() -> str:
    """Sequential vs dilation qubit needs across synthetic Kraus ranks."""
    lines = ["l  sequential_qubits  dilation_qubits  sequential_gates_per_step"]
    paulis = [channels.PAULI_X, channels.PAULI_Y, channels.PAULI_Z]
    for l in (2, 4, 8, 16):
        ops = [math.sqrt(1.0 / l) * paulis[i % 3] for i in range(l)]
        ch = channels.KrausChannel(2, ops, label=f"synthetic-l{l}")
        seq = analysis.resource_count(circuit.build_sequential_step(ch), 1)
        dil = analysis.resource_count(circuit.build_dilation_step(ch), 1)
        lines.append(
            f"{l:<2} {seq.qubit_count:>17} {dil.qubit_count:>16} "
            f"{seq.gates_per_step:>25}"
        )
    return "\n".join(lines)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Build the configured circuits, run them and write the outputs."""
    arms = [(_ARMS[mode], *_build_arm(cfg, mode)) for mode in cfg.modes]
    observables = [engine.projector_observable(n) for n in cfg.observables]
    paths = _output_paths(cfg)
    all_series = {}
    for arm, step, method, k, l in arms:
        try:
            traj = engine.run(step, cfg.initial, cfg.steps, observables)
        except MemoryError:
            raise ConfigError(
                f"the {arm} run (register dimension {layout_dim(step.layout)}, "
                f"{cfg.steps} steps) does not fit in memory"
            ) from None
        write_csv(paths["csv", arm], traj)
        print(f"[{cfg.label}/{arm}] wrote {paths['csv', arm]}")
        if ("circuit", arm) in paths:
            _atomic_write(paths["circuit", arm], circuit.dump_circuit(step))
            print(f"[{cfg.label}/{arm}] wrote {paths['circuit', arm]}")
        print(f"method = {method}\nk = {k}\nl = {l}")
        print(analysis.resource_count(step, cfg.steps).as_text(), end="")
        verdict = analysis.monotonicity_check(traj, cfg.observables[0])
        print(
            f"[{cfg.label}/{arm}] {cfg.observables[0]} monotone: {verdict.monotone}"
            + (
                f" (first revival at step {verdict.first_violation}, "
                f"max {verdict.max_revival:.4g})"
                if not verdict.monotone
                else ""
            )
        )
        for name in cfg.observables:
            all_series[f"{arm}:{name}"] = traj.series(name)
    if ("svg", None) in paths:
        write_svg(paths["svg", None], all_series, cfg.steps, cfg.label)
        print(f"[{cfg.label}] wrote {paths['svg', None]}")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Open-system circuit trajectories: CSVs, plots, resource tables.",
    )
    configs = p.add_mutually_exclusive_group()
    configs.add_argument("--config", help="config file path")
    configs.add_argument(
        "--sweep",
        nargs="+",
        metavar="CONFIG",
        help="run several config files one after another, in argument order",
    )
    for key, (text, _) in _KEYS.items():
        flag = "--dump-circuit" if key == "circuit" else "--" + key.replace("_", "-")
        p.add_argument(flag, choices=sorted(PRESETS) if key == "preset" else None, help=text)
    p.add_argument(
        "--resource-table",
        action="store_true",
        help="print the sequential vs dilation comparison table",
    )
    return p


def _exit_code(run) -> int:
    """Call ``run()`` (None is success); map each failure to its exit code and one stderr line."""
    try:
        return run() or EXIT_OK
    except (ConfigError, circuit.BuilderError, channels.ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.NumericalViolationError as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


def _check_outputs(loaded) -> None:
    """Before anything runs, refuse an output two writers share or that cannot be a file."""
    writers = {}
    for i, (path, cfg) in enumerate(loaded):
        for (key, _), out in _output_paths(cfg).items():
            if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
                raise OutputError(f"cannot write {out}: No such file or directory")
            if os.path.isdir(out):
                raise OutputError(f"cannot write {out}: Is a directory")
            if os.path.exists(out) and not os.path.isfile(out):
                raise OutputError(f"cannot write {out}: not a regular file")
            j, first_path, first_key = writers.setdefault(os.path.abspath(out), (i, path, key))
            if j != i:
                raise ConfigError(f"{first_path} and {path} both write {out}")
            if first_key != key:
                raise ConfigError(f"{first_key} and {key} both write {out}", path)


def main(argv=None) -> int:
    """Lay the flags over each config (``--config``, each ``--sweep`` file or none),
    load all, check every output path, then run them in order; the exit code is the worst."""
    args = _parser().parse_args(argv)
    flags = {_config_key(dest): (value, None) for dest, value in vars(args).items()
             if _config_key(dest) in _KEYS and value is not None}
    loaded = []

    def load(path):
        if path is None and not flags:
            raise ConfigError("nothing to do: pass --config, --preset or experiment flags")
        raw = _read_keyvalues(path) if path is not None else {}
        loaded.append((path, _build_config({**raw, **flags}, path)))

    sources = args.sweep or [args.config]
    if sources == [None] and not flags and args.resource_table:
        sources = []  # the table alone needs no run
    codes = [_exit_code(lambda: load(path)) for path in sources]
    if (checked := _exit_code(lambda: _check_outputs(loaded))) != EXIT_OK:
        return checked
    codes += [_exit_code(lambda: run_experiment(cfg)) for _, cfg in loaded]
    if args.resource_table and max(codes, default=EXIT_OK) == EXIT_OK:
        print(_resource_comparison_table())
    return max(codes, default=EXIT_OK)


if __name__ == "__main__":
    raise SystemExit(main())
