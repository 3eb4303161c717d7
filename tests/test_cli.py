"""Exit codes, argument parsing, and config composition of the CLI."""

import hashlib

import pytest

from tricert.cli import main
from tricert.scan import parse


def _run(argv):
    return main(argv)


class TestRender:
    def test_render_tricorn(self, tmp_path):
        out = tmp_path / "img.ppm"
        code = _run([
            "render", "--mode", "tricorn", "--region", "-2,2,-2,2",
            "--size", "32x32", "--maxiter", "50", "-o", str(out),
        ])
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n32 32\n255\n")
        assert len(data) == len(b"P6\n32 32\n255\n") + 3 * 32 * 32

    def test_render_julia(self, tmp_path):
        out = tmp_path / "julia.ppm"
        code = _run([
            "render", "--mode", "julia", "--c", "-1,0", "--region", "-2,2,-2,2",
            "--size", "16x16", "--maxiter", "50", "-o", str(out),
        ])
        assert code == 0
        assert out.read_bytes().startswith(b"P6\n")

    def test_bad_region_exits_2(self, tmp_path):
        code = _run([
            "render", "--region", "2,-2,-2,2", "--size", "8x8",
            "-o", str(tmp_path / "x.ppm"),
        ])
        assert code == 2

    def test_bad_size_exits_2(self, tmp_path):
        code = _run([
            "render", "--size", "8by8", "-o", str(tmp_path / "x.ppm"),
        ])
        assert code == 2

    def test_missing_subcommand_exits_2(self):
        assert _run([]) == 2

    def test_unknown_flag_exits_2(self):
        assert _run(["render", "--frobnicate", "-o", "x.ppm"]) == 2


class TestScan:
    def test_qlike_scan_writes_certificate(self, tmp_path):
        out = tmp_path / "cert.txt"
        code = _run([
            "scan", "--claim", "qlike", "--max-depth", "1",
            "-o", str(out),
        ])
        assert code == 0
        cert = parse(out.read_bytes())
        assert cert.claim == "qlike-boundary"
        assert cert.config["cli.claim"] == "qlike"
        assert len(cert.leaves) >= 1

    def test_config_file_merge(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("max_depth = 1  # shallow\n")
        out = tmp_path / "cert.txt"
        code = _run([
            "scan", "--claim", "qlike", "--config", str(cfg), "-o", str(out),
        ])
        assert code == 0
        cert = parse(out.read_bytes())
        assert cert.config["max_depth"] == "1"

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("max_depth = 5\n")
        out = tmp_path / "cert.txt"
        code = _run([
            "scan", "--claim", "qlike", "--config", str(cfg),
            "--max-depth", "0", "-o", str(out),
        ])
        assert code == 0
        cert = parse(out.read_bytes())
        assert cert.config["max_depth"] == "0"

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("mystery = 1\n")
        assert _run(["scan", "--claim", "qlike", "--config", str(cfg)]) == 2

    def test_missing_config_file_exits_2(self):
        assert _run(["scan", "--claim", "qlike", "--config", "/no/such/file"]) == 2

    def test_config_rect_is_echoed(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("rect = -1.7386,-1.7384,0.0157,0.0159\n")
        out = tmp_path / "cert.txt"
        code = _run(["scan", "--claim", "qlike", "--config", str(cfg),
                     "--max-depth", "0", "-o", str(out)])
        assert code == 0
        cert = parse(out.read_bytes())
        assert cert.config["cli.rect"] == "-1.7386,-1.7384,0.0157,0.0159"
        assert cert.root.re.lo == -1.7386

    @pytest.mark.parametrize("argv, key", [
        (["verify-arcs"], "contour_depth"),
        (["verify-count"], "workers"),
        (["scan", "--claim", "qlike"], "period"),
        (["scan", "--claim", "parabolic"], "region"),
    ])
    def test_config_key_the_command_does_not_use_exits_2(self, tmp_path, argv, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 5\n")
        assert _run(argv + ["--config", str(cfg)]) == 2

    def test_flag_of_another_claim_exits_2(self):
        assert _run(["scan", "--claim", "qlike", "--period", "9"]) == 2

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("max_depth = deep\n")
        assert _run(["scan", "--claim", "qlike", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("argv", [
        ["--max-depth", "-1"],
        ["--min-depth", "3", "--max-depth", "1"],
        ["--segment-depth", "-1", "--max-depth", "0"],
    ])
    def test_depth_out_of_range_exits_2(self, argv, capsys):
        assert _run(["scan", "--claim", "qlike", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_period_out_of_range_exits_2(self):
        assert _run(["scan", "--claim", "parabolic", "--period", "0"]) == 2

    def test_odd_count_iterate_exits_2(self, capsys):
        assert _run(["scan", "--claim", "count", "--n", "3", "--max-depth", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_golden_qlike_certificate(self, tmp_path):
        # a numpy-free scan of the qlike-wide rectangle; the digest excludes
        # the #config.cli.* echo, so it pins the leaves and the claim config
        out = tmp_path / "cert.txt"
        code = _run([
            "scan", "--claim", "qlike", "--rect", "-1.8025,-1.6745,-0.0482,0.0798",
            "--max-depth", "3", "--segment-depth", "8", "-o", str(out),
        ])
        assert code == 1
        lines = out.read_bytes().splitlines(keepends=True)
        body = b"".join(ln for ln in lines if not ln.startswith(b"#config.cli."))
        assert hashlib.sha256(body).hexdigest() == (
            "8209bcc676ef9964b4f5c2aab4193da65a211127cb33cc3e797e14e7c4152752"
        )

    def test_scan_image_output(self, tmp_path):
        out = tmp_path / "cert.txt"
        img = tmp_path / "scan.ppm"
        code = _run([
            "scan", "--claim", "qlike", "--max-depth", "0",
            "-o", str(out), "--image", str(img),
        ])
        assert code == 0
        assert img.read_bytes().startswith(b"P6\n600 600\n255\n")


class TestVerifyQlike:
    def test_unacknowledged_assumptions_exit_3(self, tmp_path, capsys):
        code = _run(["verify-qlike", "--max-depth", "2", "-o",
                     str(tmp_path / "q.txt")])
        assert code == 3
        assert "assumptions" in capsys.readouterr().out

    def test_acknowledged_run_exits_0(self, capsys):
        code = _run(["verify-qlike", "--max-depth", "2",
                     "--acknowledge-assumptions"])
        assert code == 0
        assert "TRUE" in capsys.readouterr().out

    def test_anchor_outside_rect_exits_2(self):
        assert _run(["verify-qlike", "--anchor", "0,0", "--max-depth", "0"]) == 2

    def test_anchor_from_config(self, tmp_path):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("anchor = -1.7385,0.0158\nacknowledge_assumptions = yes\n")
        out = tmp_path / "q.txt"
        _run(["verify-qlike", "--config", str(cfg), "--max-depth", "0", "-o", str(out)])
        cert = parse(out.read_bytes())
        assert cert.config["anchor"] == "-1.7385,0.0158"
        assert cert.config["cli.acknowledge_assumptions"] == "yes"


class TestVerifyCount:
    def test_expect_from_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("expect = 2\n")
        out = tmp_path / "c.txt"
        code = _run(["verify-count", "--config", str(cfg), "--min-depth", "0",
                     "--max-depth", "0", "--rect", "-1.73875,-1.7387,0.01555,0.0156",
                     "-o", str(out)])
        assert code == 1  # the region holds one fixed point, not two
        assert parse(out.read_bytes()).config["expect"] == "2"

    def test_odd_iterate_exits_2(self, capsys):
        code = _run(["verify-count", "--n", "3", "--min-depth", "0", "--max-depth", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_region_is_undetermined(self, tmp_path):
        # f^2 overflows all along this region's contour
        out = tmp_path / "c.txt"
        code = _run(["verify-count", "--region", "1e80,2e80,1e80,2e80", "--n", "2",
                     "--min-depth", "0", "--max-depth", "0", "-o", str(out)])
        assert code == 1
        assert [leaf.status.value for leaf in parse(out.read_bytes()).leaves] == ["U"]


class TestVerifyDisjoint:
    def test_yellow_is_tied_to_x(self, tmp_path):
        out = tmp_path / "y.txt"
        _run(["verify-disjoint", "--max-depth", "0", "-o", str(out),
              "--red-out", str(tmp_path / "r.txt")])
        assert parse(out.read_bytes()).config["region"] == "0.0,0.08,0.0,0.08"


class TestCenters:
    def test_report(self, capsys):
        code = _run(["centers"])
        out = capsys.readouterr().out
        assert code == 0
        for label in ("zero", "c*", "omega*c*", "omega2*c*"):
            assert label in out
        assert "-1.754877666" in out
        assert "rotation consistency: True" in out
