"""Arbitrary config text ends in exit 0 or 2, never in a traceback.

The one exception is an odd value with a "/" (``pi/0``) given to an output
key: it names a file in a missing directory, which is the documented exit 4
with one ``output error:`` line.

Each example starts from a runnable experiment over the real config keys,
then overwrites or drops up to two keys with odd values and may add a
garbage line. Step counts and memory orders stay small, so an example runs
in milliseconds in its own temporary directory. ``--sweep`` over the one
file must give the same exit code, output and files as ``--config``. A key
that the file sets and that none of its arms reads exits 2.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from oqsim.channels import pauli_channel, save_channel
from oqsim.cli import _ARM_KEYS, _KEYS, PRESETS, main

ANGLES = st.sampled_from(["pi/10", "2pi/3", "5pi/6", "0.3", "0", "pi"])
KINDS = st.sampled_from(["amplitude-damping", "dephasing"])
PROBABILITY = st.sampled_from(["0", "0.05", "0.3"])
NAMES = st.lists(st.sampled_from(["p0", "p1", "p+", "p-"]), max_size=3).map(", ".join)

EXPERIMENTS = st.one_of(
    st.fixed_dictionaries(
        {"preset": st.sampled_from(["fig6", "fig7", "fig8"])},
        optional={"mode": st.sampled_from(["markovian", "non-markovian"])},
    ),
    st.fixed_dictionaries({"channel": KINDS, "mode": st.just("markovian"), "theta": ANGLES}),
    st.fixed_dictionaries(
        {"channel": KINDS, "mode": st.just("non-markovian"),
         "thetas": st.lists(ANGLES, min_size=2, max_size=4).map(", ".join)},
    ),
    st.fixed_dictionaries(
        {"channel": st.just("pauli"), "mode": st.just("sequential")},
        optional={"px": PROBABILITY, "py": PROBABILITY, "pz": PROBABILITY},
    ),
    st.fixed_dictionaries(
        {"channel": st.just("custom-file"), "mode": st.just("sequential"),
         "channel_file": st.sampled_from(["pauli.json", "malformed.json", "absent.json"])},
    ),
)
COMMON = {
    "steps": st.sampled_from(["1", "2", "3"]),
    "initial": st.sampled_from(["|0>", "|1>", "|+>", "|->", "0.5,0.5;0.5,0.5"]),
    "observables": NAMES,
    "csv": st.sampled_from(["out.csv", "out"]),
    "svg": st.sampled_from(["plot.svg", "plot"]),
    "circuit": st.sampled_from(["step.circuit", "step"]),
}
KEYS = st.sampled_from(list(_KEYS))
ODD = st.sampled_from(
    [None, "", ",", "0", "-1", "2", "7", "2.5", "1e400", "nan", "inf", "abc", "pi/0", "pi/4, zz",
     "|2>", "1;0", "1,0;0,1", "nan,0;0,1", "fig9", "warp", "dephasing", "sequential"]
)
GARBAGE = st.sampled_from(
    ["[experiment]", "[outputs]", "[bogus]", "no equals sign", "thetaa = 1", "= 1", "# note", "k ="]
) | st.text(max_size=12)


@st.composite
def config_text(draw):
    chosen = draw(EXPERIMENTS) | draw(st.fixed_dictionaries({}, optional=COMMON))
    for key, value in draw(st.lists(st.tuples(KEYS, ODD), max_size=2)):
        if value is None:
            chosen.pop(key, None)
        else:
            chosen[key] = value
    lines = [f"{key} = {value}" for key, value in chosen.items()]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(GARBAGE))
    return "\n".join(lines) + "\n", chosen


def _unread(chosen):
    """The keys in ``chosen`` that only some arms read and that none of its arms reads."""
    preset = PRESETS.get(chosen.get("preset"), {})
    channel = chosen.get("channel", preset.get("channel"))
    modes = [chosen["mode"]] if "mode" in chosen else ["markovian", "non-markovian"] * bool(preset)
    arms = [channel] if channel in ("pauli", "custom-file") else modes
    read = {key for arm in arms for key in _ARM_KEYS.get(arm, ())}
    return {key for keys in _ARM_KEYS.values() for key in keys if key in chosen} - read


def _run(argv, text):
    """Exit code, stdout, stderr and output bytes of ``main(argv)`` in a fresh directory."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        save_channel(pauli_channel(0.1, 0.0, 0.2), "pauli.json")
        with open("malformed.json", "w", encoding="utf-8") as fh:
            fh.write('{"dim": 2, "operators": 5}')
        with open("exp.cfg", "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = {}
        for name in sorted(os.listdir(".")):
            with open(name, "rb") as fh:
                files[name] = fh.read()
    return code, out.getvalue(), err.getvalue(), files


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config_text())
def test_config_text_exits_0_or_2(config):
    text, chosen = config
    alone = code, _, err, _ = _run(["--config", "exp.cfg"], text)
    assert code in (0, 2) or (code == 4 and "/" in text and err.startswith("output error: "))
    assert code == 2 or not _unread(chosen)
    assert _run(["--sweep", "exp.cfg"], text) == alone
