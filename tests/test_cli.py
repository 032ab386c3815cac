import errno
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

import oqsim.cli as cli
from oqsim.channels import KrausChannel, PAULI_X, save_channel
from oqsim.circuit import (
    MemorySpec,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
    parse_circuit,
    same_circuit,
)
from oqsim.cli import (
    ConfigError,
    main,
    parse_angle,
    parse_config,
    parse_initial,
)
from oqsim.engine import StepRecord, projector_observable, run

from conftest import dense_trajectory, physical_pages


class TestParseAngle:
    @pytest.mark.parametrize("text,want", [
        ("pi/10", math.pi / 10),
        ("2pi/3", 2 * math.pi / 3),
        ("5pi/6", 5 * math.pi / 6),
        ("pi", math.pi),
        ("2*pi/3", 2 * math.pi / 3),
        ("0.25", 0.25),
        ("1.5pi/2", 1.5 * math.pi / 2),
        ("0", 0.0),
    ])
    def test_forms(self, text, want):
        assert parse_angle(text) == pytest.approx(want, abs=1e-15)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_angle("two pies")

    @pytest.mark.parametrize("text", ["pi/0", "2pi/0.0"])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(ConfigError, match="divides by zero"):
            parse_angle(text)


class TestParseInitial:
    def test_named(self):
        rho = parse_initial("|+>")
        assert abs(rho.matrix[0, 1] - 0.5) < 1e-12

    def test_matrix_rows(self):
        rho = parse_initial("0.5,0.5;0.5,0.5")
        assert abs(rho.matrix[1, 0] - 0.5) < 1e-12

    def test_unknown(self):
        with pytest.raises(ConfigError):
            parse_initial("|2>")


class TestParseConfig:
    def test_minimal_file_fills_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "channel = amplitude-damping\nmode = markovian\ntheta = pi/10\nsteps = 20\n"
        )
        cfg = parse_config(path)
        assert cfg.modes == ("markovian",)
        assert cfg.steps == 20
        assert cfg.observables == ("p1",)
        assert abs(cfg.initial.matrix[1, 1] - 1.0) < 1e-12  # defaults to |1>

    def test_sections_and_comments(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[experiment]\n"
            "channel = dephasing  # kind\n"
            "mode = markovian\n"
            "theta = pi/5\n"
            "[outputs]\n"
            "csv = out.csv\n"
        )
        cfg = parse_config(path)
        assert cfg.csv == "out.csv"
        assert cfg.observables == ("p+",)
        assert cfg.steps == 100  # dephasing default

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("channel = dephasing\nmode = markovian\nthetaa = pi/5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "thetaa" in str(err.value) and ":3:" in str(err.value)

    def test_thetas_length_mismatch_names_field(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "channel = dephasing\nmode = non-markovian\nk = 3\nthetas = pi/5, pi/4\n"
        )
        with pytest.raises(ConfigError, match="thetas"):
            parse_config(path)

    def test_preset_expansion(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("preset = fig6\n")
        cfg = parse_config(path)
        assert cfg.channel == "amplitude-damping"
        assert cfg.modes == ("markovian", "non-markovian")
        assert cfg.steps == 50
        assert cfg.theta == pytest.approx(math.pi / 10)
        assert cfg.thetas == pytest.approx(
            (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6)
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    def test_not_utf8_cannot_be_read(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes("channel = d\xe9phasing\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(path)

    @pytest.mark.parametrize("line", ["theta = abc", "thetas = pi/4, zz"])
    def test_angle_errors_carry_path_and_line(self, tmp_path, line):
        path = tmp_path / "exp.cfg"
        path.write_text(f"channel = dephasing\nmode = markovian\n{line}\n")
        with pytest.raises(ConfigError, match="cannot parse angle") as err:
            parse_config(path)
        assert str(err.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_observable_list_rejected_at_its_line(self, tmp_path, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"preset = fig6\nobservables = {value}\n")
        with pytest.raises(ConfigError, match="at least one") as err:
            parse_config(path)
        assert str(err.value).startswith(f"{path}:2: ")

    def test_repeated_observable_rejected_at_its_line(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "exp.cfg").write_text("preset = fig6\nobservables = p1, p0, p1\n")
        assert run_main_in(tmp_path, monkeypatch, ["--config", "exp.cfg", "--csv", "x.csv"]) == 2
        assert capsys.readouterr().err == (
            "config error: exp.cfg:2: observable 'p1' is named twice\n"
        )
        assert os.listdir(tmp_path) == ["exp.cfg"]

    def test_sequential_dephasing_requires_theta(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("channel = dephasing\nmode = sequential\n")
        with pytest.raises(ConfigError, match="exp.cfg: mode sequential requires 'theta'$"):
            parse_config(path)

    def test_nonmarkovian_requires_k_at_least_two(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "channel = dephasing\nmode = non-markovian\nk = 1\nthetas = pi/5\n"
        )
        with pytest.raises(ConfigError, match="k >= 2"):
            parse_config(path)


def run_main_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


class TestMainRuns:
    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_fig6_writes_two_csvs(self, tmp_path, monkeypatch):
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig6"])
        assert code == 0
        mark = (tmp_path / "fig6_markovian.csv").read_text().splitlines()
        nonm = (tmp_path / "fig6_nonmarkovian.csv").read_text().splitlines()
        assert mark[0] == "step,observable,value,trace,purity"
        assert len(mark) == 52 and len(nonm) == 52

        def series(lines):
            return [float(row.split(",")[2]) for row in lines[1:]]

        m, n = series(mark), series(nonm)
        assert all(b <= a + 1e-9 for a, b in zip(m, m[1:]))
        assert any(b > a + 1e-9 for a, b in zip(n, n[1:]))

    def test_fig7_limits(self, tmp_path, monkeypatch):
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig7"])
        assert code == 0
        for arm in ("markovian", "nonmarkovian"):
            rows = (tmp_path / f"fig7_{arm}.csv").read_text().splitlines()[1:]
            final = float(rows[-1].split(",")[2])
            assert abs(final - 0.5) <= 0.05

    def test_fig8_ordering(self, tmp_path, monkeypatch):
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig8"])
        assert code == 0

        def last(arm):
            rows = (tmp_path / f"fig8_{arm}.csv").read_text().splitlines()[1:]
            return float(rows[-1].split(",")[2])

        assert last("nonmarkovian") > last("markovian")

    def test_csv_deterministic(self, tmp_path, monkeypatch):
        run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", "--csv", "a.csv"])
        first = (tmp_path / "a_markovian.csv").read_bytes()
        run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", "--csv", "a.csv"])
        assert (tmp_path / "a_markovian.csv").read_bytes() == first

    def test_traces_within_tolerance(self, tmp_path, monkeypatch):
        run_main_in(tmp_path, monkeypatch, ["--preset", "fig6"])
        for arm in ("markovian", "nonmarkovian"):
            rows = (tmp_path / f"fig6_{arm}.csv").read_text().splitlines()[1:]
            for row in rows:
                assert abs(float(row.split(",")[3]) - 1.0) <= 1e-9

    def test_dump_circuit_round_trip(self, tmp_path, monkeypatch):
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "amplitude-damping",
                "--mode", "markovian",
                "--theta", "pi/10",
                "--steps", "5",
                "--dump-circuit", "step.circuit",
            ],
        )
        assert code == 0
        text = (tmp_path / "step.circuit").read_text()
        back = parse_circuit(text)
        assert same_circuit(back, build_markovian_step("amplitude-damping", math.pi / 10))

    def test_unnamed_sequential_gate_dumps_and_round_trips(self, tmp_path, monkeypatch, capsys):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        ch = KrausChannel(2, [math.sqrt(0.9) * np.eye(2), math.sqrt(0.1) * h], label="had")
        save_channel(ch, tmp_path / "had.json")
        argv = ["--mode", "sequential", "--channel", "custom-file", "--channel-file",
                "had.json", "--steps", "3", "--dump-circuit", "x"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "x").read_text()
        assert '\n["UNITARY", ["c", "e", "q"], ' in text
        assert same_circuit(parse_circuit(text), build_sequential_step(ch))

    def test_dump_of_a_channel_whose_label_holds_a_line_break_round_trips(
        self, tmp_path, monkeypatch, capsys
    ):
        ch = KrausChannel(2, [math.sqrt(0.9) * np.eye(2), math.sqrt(0.1) * PAULI_X],
                          label="a\nRESET e")
        save_channel(ch, tmp_path / "ch.json")
        argv = ["--channel", "custom-file", "--mode", "sequential", "--channel-file", "ch.json",
                "--dump-circuit", "o.circuit"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        back = parse_circuit((tmp_path / "o.circuit").read_text())
        ran = build_sequential_step(ch)
        assert len(ran.ops) == 8 and same_circuit(back, ran)

    def test_svg_written(self, tmp_path, monkeypatch):
        code = run_main_in(
            tmp_path, monkeypatch, ["--preset", "fig7", "--svg", "plot.svg"]
        )
        assert code == 0
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.startswith("<svg") and "<polyline" in svg

    def test_nonmarkovian_flags(self, tmp_path, monkeypatch):
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "dephasing",
                "--mode", "non-markovian",
                "--thetas", "pi/5, pi/4, pi/2",
                "--k", "3",
                "--steps", "40",
                "--csv", "mem.csv",
            ],
        )
        assert code == 0
        rows = (tmp_path / "mem.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[2]) for r in rows]
        assert any(b > a + 1e-9 for a, b in zip(values, values[1:]))

    def test_sequential_pauli(self, tmp_path, monkeypatch):
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "pauli",
                "--mode", "sequential",
                "--px", "0.01", "--py", "0.01", "--pz", "0.01",
                "--steps", "10",
                "--csv", "seq.csv",
            ],
        )
        assert code == 0
        rows = (tmp_path / "seq.csv").read_text().splitlines()
        assert len(rows) == 12

    @pytest.mark.parametrize("channel", ["amplitude-damping", "dephasing"])
    @pytest.mark.parametrize("theta", ["0", "pi/10", "2pi/3", "6.2"])
    def test_sequential_arm_matches_the_markovian_arm(self, tmp_path, monkeypatch, channel, theta):
        # two independent circuits of one channel: the coin step and the QR-swept factors
        base = ["--channel", channel, "--theta", theta, "--steps", "300"]
        for mode in ("markovian", "sequential"):
            argv = [*base, "--mode", mode, "--csv", f"{mode}.csv"]
            assert run_main_in(tmp_path, monkeypatch, argv) == 0
        rows = [[line.split(",") for line in (tmp_path / f"{mode}.csv").read_text().splitlines()]
                for mode in ("markovian", "sequential")]
        assert len(rows[0]) == len(rows[1]) == 302
        for want, got in zip(*rows):
            assert want[:2] == got[:2]
            if want[0] != "step":
                assert max(abs(float(a) - float(b)) for a, b in zip(want[2:], got[2:])) <= 1e-12

    @pytest.mark.parametrize("theta", ["3.5", "6.2"])
    def test_sequential_damping_keeps_the_coherences_past_pi(self, tmp_path, monkeypatch, theta):
        # cos(theta/2) < 0: the coin step's K_0 is diag(1, cos(theta/2)), a Z after the damping
        base = ["--channel", "amplitude-damping", "--theta", theta, "--steps", "20",
                "--initial", "|+>", "--observables", "p0,p1,p+,p-"]
        for mode in ("markovian", "sequential"):
            argv = [*base, "--mode", mode, "--csv", f"{mode}.csv"]
            assert run_main_in(tmp_path, monkeypatch, argv) == 0
        rows = [[line.split(",") for line in (tmp_path / f"{mode}.csv").read_text().splitlines()]
                for mode in ("markovian", "sequential")]
        assert len(rows[0]) == len(rows[1]) == 1 + 21 * 4
        for want, got in zip(rows[0][1:], rows[1][1:]):
            assert want[:2] == got[:2]
            assert max(abs(float(a) - float(b)) for a, b in zip(want[2:], got[2:])) <= 1e-12

    @pytest.mark.parametrize("channel", ["amplitude-damping", "dephasing"])
    def test_sequential_theta_out_of_range_exits_2_as_markovian(
        self, tmp_path, monkeypatch, capsys, channel
    ):
        # sin(13 / 2) > 0 is a valid gamma: the angle itself is refused
        errs = []
        for mode in ("markovian", "sequential"):
            argv = ["--channel", channel, "--mode", mode, "--theta", "13", "--steps", "2"]
            assert run_main_in(tmp_path, monkeypatch, argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs == ["config error: theta 13.0 outside [0, 2*pi)\n"] * 2
        assert os.listdir(tmp_path) == []

    def test_sequential_pauli_nan_probability_exits_2(self, tmp_path, monkeypatch, capsys):
        argv = ["--channel", "pauli", "--mode", "sequential", "--px", "nan", "--csv", "seq.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == (
            "config error: probability px = nan is not a finite number\n"
        )
        assert not (tmp_path / "seq.csv").exists()

    def test_custom_channel_file(self, tmp_path, monkeypatch):
        ch = KrausChannel(2, [math.sqrt(0.9) * np.eye(2), math.sqrt(0.1) * PAULI_X])
        save_channel(ch, tmp_path / "chan.json")
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "custom-file",
                "--mode", "sequential",
                "--channel-file", "chan.json",
                "--steps", "5",
                "--csv", "custom.csv",
            ],
        )
        assert code == 0
        assert (tmp_path / "custom.csv").exists()

    def test_resource_table_flag(self, tmp_path, monkeypatch, capsys):
        code = run_main_in(
            tmp_path, monkeypatch, ["--preset", "fig6", "--resource-table"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dilation_qubits" in out
        assert "qubit_count = 2" in out  # per-arm report for the markovian step

    def test_sweep_runs_all(self, tmp_path, monkeypatch):
        for i, preset in enumerate(("fig6", "fig8")):
            (tmp_path / f"c{i}.cfg").write_text(
                f"preset = {preset}\ncsv = out{i}.csv\n"
            )
        code = run_main_in(
            tmp_path, monkeypatch, ["--sweep", "c0.cfg", "c1.cfg"]
        )
        assert code == 0
        assert (tmp_path / "out0_markovian.csv").exists()
        assert (tmp_path / "out1_nonmarkovian.csv").exists()


class TestPresetOutputs:
    """The preset CSVs hold the dense per-op oracle's values, and every run
    writes the same bytes."""

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_rows_match_the_oracle_and_runs_repeat_bytes(self, preset, tmp_path, monkeypatch):
        (tmp_path / "preset.cfg").write_text(f"preset = {preset}\n")
        cfg = parse_config(tmp_path / "preset.cfg")
        runs = []
        for out in ("first", "second"):
            (tmp_path / out).mkdir()
            argv = ["--preset", preset, "--svg", f"{preset}.svg"]
            assert run_main_in(tmp_path / out, monkeypatch, argv) == 0
            runs.append({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()})
        assert runs[0] == runs[1]
        steps = {
            "markovian": build_markovian_step(cfg.channel, cfg.theta),
            "nonmarkovian": build_nonmarkovian_step(cfg.channel, MemorySpec(cfg.k, cfg.thetas)),
        }
        assert sorted(runs[0]) == sorted([f"{preset}.svg"] + [f"{preset}_{a}.csv" for a in steps])
        projectors = {n: projector_observable(n).projector for n in cfg.observables}
        for arm, step in steps.items():
            want = dense_trajectory(step, cfg.initial, cfg.steps)
            header, *rows = runs[0][f"{preset}_{arm}.csv"].decode().splitlines()
            assert header == "step,observable,value,trace,purity"
            assert [row.split(",")[:2] for row in rows] == [
                [str(n), name] for n in range(cfg.steps + 1) for name in cfg.observables
            ]
            for row in rows:
                n, name, value, trace, pur = row.split(",")
                red = want[int(n)]
                assert abs(float(value) - np.trace(projectors[name] @ red).real) <= 1e-12
                assert abs(float(trace) - np.trace(red).real) <= 1e-12
                assert abs(float(pur) - np.trace(red @ red).real) <= 1e-12

    @staticmethod
    def per_record_csv(records):
        """The CSV as written one f-string per record and observable."""
        lines = ["step,observable,value,trace,purity"] + [
            f"{r.step},{name},{v!r},{r.trace!r},{r.purity!r}"
            for r in records for name, v in r.values.items()
        ]
        return "\n".join(lines) + "\n"

    def test_a_two_observable_run_writes_the_per_record_csv(self, tmp_path, monkeypatch):
        argv = ["--channel", "amplitude-damping", "--mode", "markovian", "--theta", "pi/7",
                "--initial", "|+>", "--observables", "p+,p0", "--steps", "20", "--csv", "two.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        traj = run(build_markovian_step("amplitude-damping", math.pi / 7), parse_initial("|+>"),
                   20, [projector_observable(n) for n in ("p+", "p0")])
        assert (tmp_path / "two.csv").read_text() == self.per_record_csv(traj.records)

    def test_the_columnar_csv_keeps_each_repr(self, tmp_path):
        rows = [(0.0, 1.0), (-0.0, 1e-05), (1e-05, 0.9999999999999998), (2.5e-17, 1e16)]
        records = [
            StepRecord(n, {"p+": v, "p0": 1.0 - v}, t, 0.75) for n, (v, t) in enumerate(rows)
        ]
        columns = {"p+": [v for v, _ in rows], "p0": [1.0 - v for v, _ in rows]}
        cli.write_csv(tmp_path / "edge.csv", columns, [t for _, t in rows], [0.75] * len(rows))
        text = (tmp_path / "edge.csv").read_text()
        assert text == self.per_record_csv(records)
        assert "\n0,p+,0.0,1.0,0.75\n" in text and "\n1,p+,-0.0,1e-05,0.75\n" in text

    def test_svg_points_are_the_scalar_formula(self, tmp_path):
        series = {"a:p1": [0.0, 1.0, -1e-3, 1.5, 1e-05, 0.123456, 0.5], "b:p+": [0.875, 2.0, -0.0]}
        cli.write_svg(tmp_path / "p.svg", series, 6, "plot")
        svg = (tmp_path / "p.svg").read_text()

        def x(n):
            return 56 + 528 * (n / 6)

        def y(v):
            return 440 - 56 - 328 * min(max(v, 0.0), 1.0)

        assert re.findall(r'points="([^"]*)"', svg) == [
            " ".join(f"{x(n):.2f},{y(v):.2f}" for n, v in enumerate(values))
            for values in series.values()
        ]
        assert re.findall(r'<text x="48" y="([^"]*)"', svg) == [
            f"{y(tick / 10.0) + 4:.1f}" for tick in range(0, 11, 2)
        ]
        assert "56.00,384.00 144.00,56.00 232.00,384.00 320.00,56.00" in svg  # clamped

    def test_a_preset_run_builds_no_step_record(self, tmp_path, monkeypatch):
        def no_records(*args, **kwargs):
            raise AssertionError("the CLI built a StepRecord")

        monkeypatch.setattr(cli.engine, "StepRecord", no_records)
        assert run_main_in(tmp_path, monkeypatch, ["--preset", "fig7", "--svg", "p.svg"]) == 0
        assert (tmp_path / "p.svg").exists()


class TestSweep:
    def test_runs_in_argument_order_past_a_failing_config(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = a.csv\n")
        (tmp_path / "b.cfg").write_text("channel = dephasing\nmode = warp\n")
        (tmp_path / "c.cfg").write_text("preset = fig8\ncsv = c.csv\n")
        alone = []
        for cfg in ("a.cfg", "c.cfg"):
            assert run_main_in(tmp_path, monkeypatch, ["--config", cfg]) == 0
            alone.append(capsys.readouterr().out)
        code = run_main_in(tmp_path, monkeypatch, ["--sweep", "a.cfg", "b.cfg", "c.cfg"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == alone[0] + alone[1]
        assert captured.err.strip().splitlines() == [
            "config error: b.cfg:2: unknown mode 'warp'; expected one of "
            "('markovian', 'non-markovian', 'sequential')"
        ]

    def test_shared_output_path_exits_2_before_running(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = same.csv\n")
        (tmp_path / "b.cfg").write_text("preset = fig8\ncsv = same.csv\n")
        code = run_main_in(tmp_path, monkeypatch, ["--sweep", "a.cfg", "b.cfg"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "config error: a.cfg and b.cfg both write same_markovian.csv"
        ]
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "b.cfg"]

    def test_flags_apply_to_every_config(self, tmp_path, monkeypatch):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = a.csv\n")
        (tmp_path / "b.cfg").write_text("channel = dephasing\nmode = markovian\ntheta = pi/5\n")
        argv = ["--sweep", "a.cfg", "b.cfg", "--steps", "3", "--observables", "p0"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        for name in ("a_markovian.csv", "a_nonmarkovian.csv", "dephasing-markovian.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert [row.split(",")[:2] for row in rows] == [[str(n), "p0"] for n in range(4)]

    def test_resource_table_printed_once_after_every_run(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = a.csv\n")
        (tmp_path / "b.cfg").write_text("preset = fig7\ncsv = b.csv\n")
        argv = ["--sweep", "a.cfg", "b.cfg", "--resource-table"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        out = capsys.readouterr().out
        assert out.count("dilation_qubits") == 1
        assert out.index("dilation_qubits") > out.index("[fig7/nonmarkovian] p+ monotone")

    def test_resource_table_not_printed_after_a_failing_config(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "a.cfg").write_text("preset = fig6\ncsv = a.csv\n")
        (tmp_path / "b.cfg").write_text("channel = dephasing\nmode = warp\n")
        argv = ["--sweep", "a.cfg", "b.cfg", "--resource-table"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert "dilation_qubits" not in capsys.readouterr().out

    def test_output_flag_shared_by_two_configs_exits_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "a.cfg").write_text("preset = fig6\n")
        (tmp_path / "b.cfg").write_text("preset = fig8\n")
        argv = ["--sweep", "a.cfg", "b.cfg", "--csv", "x.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == "config error: a.cfg and b.cfg both write x_markovian.csv\n"
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "b.cfg"]

    def test_config_and_sweep_are_exclusive(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "a.cfg").write_text("preset = fig6\n")
        with pytest.raises(SystemExit) as exit_:
            run_main_in(tmp_path, monkeypatch, ["--config", "a.cfg", "--sweep", "a.cfg"])
        assert exit_.value.code == 2
        assert "not allowed with argument --config" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["a.cfg"]

    @pytest.mark.parametrize("key,value,path", [
        ("svg", "plot", "plot.svg"),
        ("circuit", "step", "step_markovian.circuit"),
    ])
    def test_shared_svg_or_circuit_path_exits_2(
        self, tmp_path, monkeypatch, capsys, key, value, path
    ):
        (tmp_path / "a.cfg").write_text(f"preset = fig6\ncsv = a.csv\n{key} = {value}\n")
        (tmp_path / "b.cfg").write_text(f"preset = fig7\ncsv = b.csv\n{key} = ./{value}\n")
        code = run_main_in(tmp_path, monkeypatch, ["--sweep", "a.cfg", "b.cfg"])
        assert code == 2
        err = capsys.readouterr().err
        assert "a.cfg and b.cfg both write" in err and path in err
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "b.cfg"]


class TestOutputCollisions:
    @pytest.mark.parametrize("argv,err", [
        (["--csv", "p.svg", "--svg", "p.svg"], "config error: csv and svg both write p.svg\n"),
        (["--csv", "x", "--dump-circuit", "./x"], "config error: csv and circuit both write ./x\n"),
    ], ids=["csv-svg", "csv-circuit"])
    def test_two_outputs_of_one_config_exit_2(self, tmp_path, monkeypatch, capsys, argv, err):
        base = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5"]
        assert run_main_in(tmp_path, monkeypatch, base + argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)
        assert os.listdir(tmp_path) == []

    def test_two_spellings_through_a_symlinked_directory_exit_2(
        self, tmp_path, monkeypatch, capsys
    ):
        # link/.. is a/, where link points, not the working directory b/ that it reads as
        (tmp_path / "a" / "deep").mkdir(parents=True)
        (tmp_path / "b").mkdir()
        os.symlink("../a/deep", tmp_path / "b" / "link")
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
                "--csv", "link/../p.svg", "--svg", "../a/p.svg"]
        assert run_main_in(tmp_path / "b", monkeypatch, argv) == 2
        captured = capsys.readouterr()
        err = "config error: csv and svg both write ../a/p.svg\n"
        assert (captured.out, captured.err) == ("", err)
        assert os.listdir(tmp_path / "a") == ["deep"] and os.listdir(tmp_path / "b") == ["link"]

    def test_two_outputs_of_one_config_file_name_the_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "a.cfg").write_text("preset = fig6\nmode = markovian\ncsv = p.svg\n")
        assert run_main_in(tmp_path, monkeypatch, ["--config", "a.cfg", "--svg", "p"]) == 2
        assert capsys.readouterr().err == "config error: a.cfg: csv and svg both write p.svg\n"
        assert os.listdir(tmp_path) == ["a.cfg"]


class TestErrorOrigins:
    def test_flag_error_carries_no_file_prefix(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "ok.cfg").write_text("channel = dephasing\nmode = markovian\ntheta = pi/5\n")
        assert run_main_in(tmp_path, monkeypatch, ["--config", "ok.cfg", "--steps", "-3"]) == 2
        assert capsys.readouterr().err == "config error: steps must be >= 1, got -3\n"

    def test_preset_value_takes_the_preset_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# fig6 with a shorter memory\npreset = fig6\nk = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}:2: 'thetas' has 3 angles but k = 2"

    def test_missing_key_names_the_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("mode = markovian\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}: missing required key 'channel'"


class TestUnreadKeys:
    """A key that the user sets and that no configured arm reads exits 2 and names the key."""

    @pytest.mark.parametrize("argv,err", [
        (["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
          "--thetas", "pi/4, pi/3", "--steps", "3"],
         "key 'thetas' is not read by channel dephasing in mode markovian"),
        (["--channel", "amplitude-damping", "--mode", "markovian", "--theta", "pi/5",
          "--px", "0.3"],
         "key 'px' is not read by channel amplitude-damping in mode markovian"),
        (["--channel", "amplitude-damping", "--mode", "non-markovian",
          "--thetas", "pi/4, pi/3", "--theta", "1"],
         "key 'theta' is not read by channel amplitude-damping in mode non-markovian"),
        (["--channel", "pauli", "--mode", "sequential", "--px", "0.1",
          "--channel-file", "/nonexistent"],
         "key 'channel_file' is not read by channel pauli in mode sequential"),
        (["--channel", "amplitude-damping", "--mode", "sequential", "--theta", "1", "--k", "5"],
         "key 'k' is not read by channel amplitude-damping in mode sequential"),
        (["--preset", "fig6", "--px", "0.1"],
         "key 'px' is not read by channel amplitude-damping in mode markovian or non-markovian"),
    ])
    def test_an_unread_flag_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, argv, err):
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert os.listdir(tmp_path) == []

    def test_an_unread_file_key_names_its_line(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "p.cfg").write_text(
            "channel = pauli\nmode = sequential\npx = 0.1\ntheta = pi/5\n"
        )
        assert run_main_in(tmp_path, monkeypatch, ["--config", "p.cfg"]) == 2
        assert capsys.readouterr().err == (
            "config error: p.cfg:4: key 'theta' is not read by channel pauli in mode sequential\n"
        )
        assert os.listdir(tmp_path) == ["p.cfg"]

    def test_a_preset_key_that_the_mode_does_not_read_is_exempt(self, tmp_path, monkeypatch):
        argv = ["--preset", "fig6", "--mode", "markovian", "--steps", "3"]  # thetas, k unread
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        assert os.listdir(tmp_path) == ["fig6.csv"]

    def test_an_unread_flag_fails_only_the_sweep_configs_that_do_not_read_it(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "a.cfg").write_text(
            "channel = dephasing\nmode = markovian\ntheta = pi/5\ncsv = a.csv\n"
        )
        (tmp_path / "b.cfg").write_text(
            "channel = dephasing\nmode = non-markovian\nthetas = pi/5, pi/4\ncsv = b.csv\n"
        )
        argv = ["--sweep", "a.cfg", "b.cfg", "--k", "2", "--steps", "3"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == (
            "config error: key 'k' is not read by channel dephasing in mode markovian\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "b.cfg", "b.csv"]


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.cfg").write_text("channel = dephasing\nmode = warp\n")
        code = run_main_in(tmp_path, monkeypatch, ["--config", "bad.cfg"])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, monkeypatch):
        code = run_main_in(tmp_path, monkeypatch, ["--config", "absent.cfg"])
        assert code == 2

    def test_no_arguments_exits_2(self, tmp_path, monkeypatch, capsys):
        assert run_main_in(tmp_path, monkeypatch, []) == 2
        assert capsys.readouterr().err.startswith("config error: nothing to do")

    def test_resource_table_alone_needs_no_experiment(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "oqsim.cli", "--resource-table"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == cli._resource_comparison_table() + "\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag,key", [
        ("--csv", "csv"), ("--svg", "svg"), ("--dump-circuit", "circuit"),
    ])
    def test_empty_output_path_flag_exits_2(self, tmp_path, monkeypatch, capsys, flag, key):
        assert run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", flag, ""]) == 2
        assert capsys.readouterr().err == f"config error: {key} must name a file\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("key", ["csv", "svg", "circuit"])
    def test_empty_output_path_in_a_file_names_its_line(self, tmp_path, monkeypatch, capsys, key):
        (tmp_path / "exp.cfg").write_text(f"preset = fig6\n[outputs]\n{key} =\n")
        assert run_main_in(tmp_path, monkeypatch, ["--config", "exp.cfg"]) == 2
        assert capsys.readouterr().err == f"config error: exp.cfg:3: {key} must name a file\n"
        assert os.listdir(tmp_path) == ["exp.cfg"]

    def test_invalid_custom_channel_exits_2(self, tmp_path, monkeypatch, capsys):
        # 0.5 I alone: written by hand, as no KrausChannel holds an incomplete set
        (tmp_path / "bad.json").write_text(
            '{"dim": 2, "operators": [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]}'
        )
        code = run_main_in(
            tmp_path,
            monkeypatch,
            [
                "--channel", "custom-file",
                "--mode", "sequential",
                "--channel-file", "bad.json",
            ],
        )
        assert code == 2
        assert "completeness" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "operators": 5}',
        "5",
        '{"dim": 2, "operators": [[1, 2, 3, 4]]}',
        '{"dim": 2.5, "operators": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}',
        pytest.param(f'{{"dim": 1, "operators": [[[{10**400}, 0]]]}}', id="too-large-for-a-float"),
    ])
    def test_malformed_channel_file_exits_2(self, tmp_path, monkeypatch, capsys, text):
        (tmp_path / "ch.json").write_text(text)
        argv = ["--channel", "custom-file", "--mode", "sequential", "--channel-file", "ch.json"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert "config error: cannot load channel file 'ch.json'" in capsys.readouterr().err

    def test_deeply_nested_channel_file_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "deep.json").write_text("[" * 200000 + "]" * 200000)
        argv = ["--channel", "custom-file", "--mode", "sequential", "--channel-file", "deep.json",
                "--steps", "3", "--csv", "o.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot load channel file")

    def test_not_utf8_config_exits_2_alone_and_in_a_sweep(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.cfg").write_bytes("channel = d\xe9phasing\n".encode("latin-1"))
        assert run_main_in(tmp_path, monkeypatch, ["--config", "bad.cfg"]) == 2
        assert run_main_in(tmp_path, monkeypatch, ["--sweep", "bad.cfg"]) == 2
        assert capsys.readouterr().err.count("cannot read config") == 2

    def test_empty_observables_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        argv = ["--preset", "fig7", "--observables", ""]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert "at least one" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_zero_denominator_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        argv = ["--channel", "amplitude-damping", "--mode", "markovian", "--theta", "pi/0"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == "config error: angle 'pi/0' divides by zero\n"
        assert os.listdir(tmp_path) == []

    def test_zero_denominator_in_a_file_names_its_line(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "exp.cfg").write_text(
            "channel = dephasing\nmode = non-markovian\nthetas = pi/5, 3pi/0\n"
        )
        assert run_main_in(tmp_path, monkeypatch, ["--config", "exp.cfg"]) == 2
        assert capsys.readouterr().err == (
            "config error: exp.cfg:3: angle '3pi/0' divides by zero\n"
        )

    def test_register_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        def too_large(step, rho0, steps, observables):
            raise MemoryError

        monkeypatch.setattr(cli.engine, "measure", too_large)
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", "--mode", "non-markovian"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: the nonmarkovian run (register dimension 16, 50 steps) "
            "does not fit in memory\n"
        )

    @pytest.mark.parametrize("k", [30, 70])
    def test_memory_order_beyond_numpy_shapes_exits_2(self, tmp_path, monkeypatch, capsys, k):
        argv = ["--channel", "amplitude-damping", "--mode", "non-markovian",
                "--thetas", ",".join(["0.1"] * k), "--steps", "3", "--csv", "x.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == (
            f"config error: the nonmarkovian run (register dimension {2 ** (k + 1)}, 3 steps) "
            "does not fit in memory\n"
        )
        assert os.listdir(tmp_path) == []

    def test_memory_order_beyond_physical_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        """A compile that would outgrow physical memory is refused, not left to the kernel's
        out-of-memory kill: k = 6 with memory made 47 pages of 4096 B, one short of its walk."""
        physical_pages(monkeypatch, 47)
        argv = ["--channel", "amplitude-damping", "--mode", "non-markovian",
                "--thetas", ",".join(["0.1"] * 6), "--steps", "2", "--csv", "x.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == (
            "config error: the nonmarkovian run (register dimension 128, 2 steps) "
            "does not fit in memory\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("steps", ["99999999999999999999", str(2**58)])
    def test_step_count_beyond_numpy_shapes_exits_2(self, tmp_path, monkeypatch, capsys, steps):
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
                "--steps", steps, "--csv", "x.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == (
            f"config error: the markovian run (register dimension 4, {steps} steps) "
            "does not fit in memory\n"
        )
        assert os.listdir(tmp_path) == []

    def test_numerical_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        from oqsim.engine import NumericalViolationError

        def exploding(step, rho0, steps, observables):
            raise NumericalViolationError(7, "trace", "trace drifted")

        monkeypatch.setattr(cli.engine, "measure", exploding)
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig6"])
        assert code == 3
        err = capsys.readouterr().err
        assert "step 7" in err and "trace" in err

    def test_unwritable_output_exits_4(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "missing" / "x.csv"
        code = run_main_in(tmp_path, monkeypatch, ["--preset", "fig6", "--csv", str(target)])
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("output error: cannot write")
        assert "x_markovian.csv" in err[0]

    @pytest.mark.parametrize("sweep", [False, True])
    def test_output_in_a_missing_directory_exits_4_before_running(
        self, tmp_path, monkeypatch, capsys, sweep
    ):
        (tmp_path / "a.cfg").write_text("preset = fig6\nsvg = missing/p.svg\n")
        argv = ["--sweep", "a.cfg"] if sweep else ["--preset", "fig6", "--svg", "missing/p.svg"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "output error: cannot write missing/p.svg: No such file or directory"
        ]
        assert os.listdir(tmp_path) == ["a.cfg"]

    @pytest.mark.parametrize("sweep", [False, True])
    def test_output_naming_a_directory_exits_4_before_running(
        self, tmp_path, monkeypatch, capsys, sweep
    ):
        (tmp_path / "adir").mkdir()
        (tmp_path / "a.cfg").write_text(
            "channel = dephasing\nmode = markovian\ntheta = pi/5\ncsv = out.csv\ncircuit = adir\n"
        )
        argv = ["--sweep", "a.cfg"] if sweep else [
            "--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
            "--csv", "out.csv", "--dump-circuit", "adir",
        ]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "output error: cannot write adir: Is a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["a.cfg", "adir"]

    def test_output_naming_a_fifo_exits_4_and_keeps_it(self, tmp_path, monkeypatch, capsys):
        os.mkfifo(tmp_path / "pipe.csv")
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
                "--steps", "3", "--csv", "pipe.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        assert capsys.readouterr().err == "output error: cannot write pipe.csv: not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(tmp_path / "pipe.csv").st_mode)
        assert os.listdir(tmp_path) == ["pipe.csv"]

    def test_output_under_a_regular_file_exits_4_before_running(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "afile").write_text("keep\n")
        argv = ["--preset", "fig6", "--csv", "afile/x.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "output error: cannot write afile/x_markovian.csv: No such file or directory\n"
        )
        assert os.listdir(tmp_path) == ["afile"]
        assert (tmp_path / "afile").read_text() == "keep\n"

    def test_symlink_to_a_directory_exits_4_before_running(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "adir").mkdir()
        os.symlink("adir", tmp_path / "link.csv")
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
                "--steps", "3", "--csv", "link.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        assert capsys.readouterr().err == "output error: cannot write link.csv: Is a directory\n"
        assert os.path.islink(tmp_path / "link.csv")
        assert sorted(os.listdir(tmp_path)) == ["adir", "link.csv"]

    def test_a_directory_reached_through_a_symlink_is_checked_where_it_resolves(
        self, tmp_path, monkeypatch, capsys
    ):
        # link/../out is a/out, which exists; b/out, which link/../out reads as, does not
        (tmp_path / "a" / "deep").mkdir(parents=True)
        (tmp_path / "a" / "out").mkdir()
        (tmp_path / "b").mkdir()
        os.symlink("../a/deep", tmp_path / "b" / "link")
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
                "--steps", "3", "--csv", "link/../out/x.csv"]
        assert run_main_in(tmp_path / "b", monkeypatch, argv) == 0
        assert capsys.readouterr().err == ""
        assert os.listdir(tmp_path / "a" / "out") == ["x.csv"]

    @pytest.mark.parametrize("target", ["missing.csv", "link.csv"])
    def test_a_symlink_that_stat_cannot_follow_is_replaced(self, tmp_path, monkeypatch, target):
        # a dangling link and a link to itself: the check passes, and the rename replaces it
        os.symlink(target, tmp_path / "link.csv")
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
                "--steps", "3", "--csv", "link.csv"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 0
        assert stat.S_ISREG(os.lstat(tmp_path / "link.csv").st_mode)
        assert os.listdir(tmp_path) == ["link.csv"]

    def test_failed_write_exits_4_closes_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch, capsys
    ):
        real_open, real_write, real_close = os.open, os.write, os.close
        opened, closed = [], []

        def tmp_open(path, *args):
            fd = real_open(path, *args)
            if str(path).endswith(".tmp"):
                opened.append(fd)
            return fd

        def full(fd, data):
            if fd in opened:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data)

        def tmp_close(fd):
            if fd in opened:
                closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(cli.os, "open", tmp_open)
        monkeypatch.setattr(cli.os, "write", full)
        monkeypatch.setattr(cli.os, "close", tmp_close)
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5", "--steps", "2"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        assert capsys.readouterr().err == (
            "output error: cannot write dephasing-markovian.csv: No space left on device\n"
        )
        assert len(opened) == 1 and closed == opened
        assert os.listdir(tmp_path) == []

    def test_failed_rename_exits_4_and_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", refuse)
        argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5", "--steps", "2"]
        assert run_main_in(tmp_path, monkeypatch, argv) == 4
        assert capsys.readouterr().err == (
            "output error: cannot write dephasing-markovian.csv: Permission denied\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv,err", [
        (["--config", "dup.cfg"], "dup.cfg:4: duplicate key 'theta'"),
        (["--channel", "dephasing"], "missing required key 'mode'"),
        (["--channel", "dephasing", "--mode", "markovian"], "mode markovian requires 'theta'"),
        (["--channel", "amplitude-damping", "--mode", "sequential"],
         "mode sequential requires 'theta'"),
        (["--channel", "pauli", "--mode", "markovian", "--theta", "pi/5"],
         "channel pauli requires mode sequential"),
        (["--channel", "custom-file", "--mode", "sequential"],
         "channel custom-file requires 'channel_file'"),
        (["--preset", "fig6", "--initial", "1,x;0,0"],
         "cannot parse initial state '1,x;0,0': complex() arg is a malformed string"),
        (["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
          "--initial", "1,0;0,inf"],
         "cannot parse initial state '1,0;0,inf': trace (inf+0j) deviates from 1 beyond 1e-10"),
    ])
    def test_config_rule_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, argv, err):
        (tmp_path / "dup.cfg").write_text(
            "channel = dephasing\nmode = markovian\ntheta = pi/5\ntheta = pi/4\n"
        )
        assert run_main_in(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert os.listdir(tmp_path) == ["dup.cfg"]


class TestAtomicWrite:
    def test_leaves_no_temp_file_and_keeps_default_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        cli._atomic_write(str(path), "a\n")
        cli._atomic_write(str(path), "b\n")
        assert path.read_text() == "b\n"
        assert os.listdir(tmp_path) == ["out.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_concurrent_writers_to_one_path(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        path = tmp_path / "same.csv"
        texts = [f"{i}\n" * 1000 for i in range(16)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda t: cli._atomic_write(str(path), t), texts))
        assert path.read_text() in texts
        assert os.listdir(tmp_path) == ["same.csv"]

    def test_a_taken_temp_name_is_drawn_again(self, tmp_path, monkeypatch):
        tokens = iter([bytes(6), bytes(6), b"\x01" * 6])
        monkeypatch.setattr(cli.os, "urandom", lambda n: next(tokens))
        taken = tmp_path / f"tmp{bytes(6).hex()}.tmp"
        taken.write_text("another writer's\n")
        cli._atomic_write(str(tmp_path / "out.csv"), "a\n")
        assert (tmp_path / "out.csv").read_text() == "a\n"
        assert taken.read_text() == "another writer's\n"
        assert sorted(os.listdir(tmp_path)) == sorted(["out.csv", taken.name])

    def test_the_temp_file_is_made_where_the_directory_resolves(self, tmp_path, monkeypatch):
        # b/link/.. is a/, where link points: the temp file goes there, beside x.csv, not in b/
        (tmp_path / "a" / "deep").mkdir(parents=True)
        (tmp_path / "b").mkdir()
        os.symlink("../a/deep", tmp_path / "b" / "link")
        real_open, seen = os.open, []

        def listing_open(path, *args):
            fd = real_open(path, *args)
            seen.append((sorted(os.listdir(tmp_path / "a")), os.listdir(tmp_path / "b")))
            return fd

        monkeypatch.setattr(cli.os, "open", listing_open)
        cli._atomic_write(str(tmp_path / "b" / "link" / ".." / "x.csv"), "a\n")
        [(in_a, in_b)] = seen
        assert len(in_a) == 2 and in_a[1].endswith(".tmp") and in_b == ["link"]
        assert (tmp_path / "a" / "x.csv").read_text() == "a\n"
        assert sorted(os.listdir(tmp_path / "a")) == ["deep", "x.csv"]

    def test_a_target_name_of_250_bytes_is_written(self, tmp_path):
        path = tmp_path / ("a" * 246 + ".csv")
        cli._atomic_write(str(path), "a\n")
        assert path.read_text() == "a\n"
        assert os.listdir(tmp_path) == [path.name]

    def test_mode_follows_a_umask_set_after_import(self, tmp_path):
        path = tmp_path / "out.csv"
        for umask in (0o077, 0o002):
            old = os.umask(umask)
            try:
                cli._atomic_write(str(path), "a\n")
            finally:
                os.umask(old)
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["out.csv"]
