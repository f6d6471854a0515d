import csv
import hashlib
import json
import os
import socket
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from specsteer import cli
from specsteer.cli import (
    DEFAULT_CONFIG,
    build_world,
    config_hash,
    load_config,
    main,
)
from specsteer.core import ConfigError, ProtocolConfig, ROLE_DRAFT, stream
from specsteer.metrics import ChannelModel
from specsteer.protocol import autoregressive_decode, run_session
from specsteer.transport import replay_cloud_log, scan_frame_log

from conftest import needs_ipv6

TINY_GENERALIST = """\
we ordered the pizza
we ordered the soup
we ordered the salad
they visited the park
they visited the museum
we like the soup
we like the salad
"""

TINY_SPECIALIST = """\
we ordered the pizza
we ordered the soup
we like the pizza
"""

TINY_PRIVATE = """\
we ordered the calzone
we like the calzone
"""


def write_tiny_config(tmp_path, **overrides):
    (tmp_path / "gen.txt").write_text(TINY_GENERALIST)
    (tmp_path / "spec.txt").write_text(TINY_SPECIALIST)
    (tmp_path / "priv.txt").write_text(TINY_PRIVATE)
    values = {
        "corpus.generalist": "gen.txt",
        "corpus.specialist": "spec.txt",
        "corpus.private": "priv.txt",
        "protocol.lambda": "0.5",
        "protocol.beta": "1.0",
        "protocol.k": "2",
        "protocol.top_k": "4",
        "protocol.max_len": "12",
        "protocol.mode": "stochastic",
        "protocol.seed": "0",
        "sweep.lambda_list": "1.0, 0.1",
        "sweep.beta_list": "0.0, 1.0",
        "sweep.trials": "4",
        "channel.latency_ms": "0.0",
        "channel.bandwidth_bps": "1000000",
        "output.dir": str(tmp_path / "out"),
    }
    values.update(overrides)
    path = tmp_path / "tiny.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def drop_lines(path, prefix):
    """Remove the lines of the config file at ``path`` that start with ``prefix``."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith(prefix)))


class TestConfigLoading:
    def test_default_config_loads(self):
        cfg = load_config(DEFAULT_CONFIG)
        assert cfg.corpus_generalist.is_file()
        assert cfg.protocol.horizon_k == 4
        assert cfg.lambda_list == (1.0, 0.5, 0.1, 0.01)

    def test_unknown_key(self, tmp_path):
        path = write_tiny_config(tmp_path)
        path.write_text(path.read_text() + "protocol.gamma = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_tiny_config(tmp_path)
        path.write_text(path.read_text() + "protocol.lambda = 0.9\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = write_tiny_config(tmp_path)
        path.write_text(path.read_text() + "not a key value line\n")
        with pytest.raises(ConfigError, match="expected key = value"):
            load_config(path)

    def test_missing_corpus(self, tmp_path):
        path = write_tiny_config(tmp_path, **{"corpus.private": "nope.txt"})
        with pytest.raises(ConfigError, match="nope.txt"):
            load_config(path)

    def test_llm_mu_must_be_zero(self, tmp_path):
        # The generalist never blends a private table, so its mu is no key.
        path = write_tiny_config(tmp_path, **{"llm.mu": "0.5"})
        with pytest.raises(ConfigError, match=r"tiny.cfg:\d+: unknown config key 'llm.mu'"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("llm.mu", "0.0"), ("llm.role", "generalist"), ("slm.role", "specialist_generic"),
        ("llm.name", "big"), ("slm.name", "small"),
        ("llm.n_params", "32000000000"), ("llm.layers", "64"), ("llm.hidden_dim", "5120"),
        ("llm.order", "3"), ("llm.add_k", "0.01"),
        ("slm.n_params", "600000000"), ("slm.layers", "28"), ("slm.hidden_dim", "1024"),
        ("slm.order", "2"), ("slm.add_k", "1.0"), ("slm.mu", "0.9"),
    ])
    def test_removed_keys_are_unknown(self, tmp_path, key, value):
        path = write_tiny_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(path)

    def test_values_parsed_with_their_key_type(self, tmp_path):
        cfg = load_config(write_tiny_config(tmp_path, **{"sweep.beta_list": "0 2.5"}))
        assert cfg.corpus_private == tmp_path / "priv.txt"
        assert cfg.trials == 4 and cfg.beta_list == (0.0, 2.5)
        assert cfg.channel == ChannelModel(one_way_latency_ms=0.0, bandwidth_bps=1e6)
        assert cfg.protocol == ProtocolConfig(
            lam=0.5, beta=1.0, horizon_k=2, top_k=4, max_len=12, decode_mode="stochastic", seed=0
        )

    def test_protocol_keys_left_out_keep_the_dataclass_defaults(self, tmp_path):
        path = write_tiny_config(tmp_path)
        drop_lines(path, "protocol.")
        assert load_config(path).protocol == ProtocolConfig()

    @pytest.mark.parametrize("key", ["corpus.generalist", "corpus.specialist", "corpus.private"])
    def test_missing_required_key(self, tmp_path, key):
        path = write_tiny_config(tmp_path)
        drop_lines(path, key + " ")
        with pytest.raises(ConfigError, match=f"missing config key '{key}'"):
            load_config(path)

    def test_config_file_not_found(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.cfg")


class TestConfigHash:
    def test_stable(self, tmp_path):
        path = write_tiny_config(tmp_path)
        assert config_hash(load_config(path)) == config_hash(load_config(path))

    def test_sensitive_to_values(self, tmp_path):
        a = load_config(write_tiny_config(tmp_path))
        b = load_config(write_tiny_config(tmp_path, **{"protocol.lambda": "0.9"}))
        assert config_hash(a) != config_hash(b)

    @pytest.mark.parametrize("key, value", [
        ("protocol.seed", "1"), ("protocol.mode", "greedy"), ("sweep.trials", "5"),
        ("channel.bandwidth_bps", "2000000"), ("sweep.lambda_list", "1.0, 0.2"),
        ("channel.latency_ms", "1.0"), ("output.dir", "elsewhere"),
    ])
    def test_sensitive_to_each_key(self, tmp_path, key, value):
        a = load_config(write_tiny_config(tmp_path))
        b = load_config(write_tiny_config(tmp_path, **{key: value}))
        assert config_hash(a) != config_hash(b)

    def test_hashes_effective_values(self, tmp_path):
        # The same values written differently, or a protocol key left at
        # its default, hash the same; an override counts like a file value.
        a = load_config(write_tiny_config(tmp_path))
        b = load_config(write_tiny_config(
            tmp_path, **{"protocol.lambda": "0.50", "protocol.k": " 2", "channel.bandwidth_bps": "1e6"}))
        assert config_hash(a) == config_hash(b)
        path = write_tiny_config(tmp_path, **{"protocol.max_len": "1024"})
        default_len = load_config(path)
        drop_lines(path, "protocol.max_len")
        assert config_hash(load_config(path)) == config_hash(default_len)
        c = load_config(write_tiny_config(tmp_path))
        c.protocol = replace(c.protocol, top_k=3)
        d = load_config(write_tiny_config(tmp_path, **{"protocol.top_k": "3"}))
        assert config_hash(c) == config_hash(d) != config_hash(a)

    @pytest.mark.parametrize("name", ["gen.txt", "spec.txt", "priv.txt"])
    def test_sensitive_to_corpus_contents(self, tmp_path, name):
        # Two copies of one file in two directories hash alike, and unlike
        # a copy whose corpus holds one more line.
        paths = []
        for d in ("a", "b", "c"):
            (tmp_path / d).mkdir()
            paths.append(write_tiny_config(tmp_path / d, **{"output.dir": str(tmp_path / "out")}))
        with open(tmp_path / "c" / name, "a", encoding="utf-8") as fh:
            fh.write("we ordered the soup\n")
        a, b, c = (config_hash(load_config(p)) for p in paths)
        assert a == b != c

    def test_sixteen_hex_chars(self, tmp_path):
        h = config_hash(load_config(write_tiny_config(tmp_path)))
        assert len(h) == 16
        int(h, 16)


class TestOverrides:
    def test_flags_set_their_fields(self, tmp_path):
        path = write_tiny_config(tmp_path)
        args = cli._build_parser().parse_args([
            "--config", str(path), "--seed", "7", "--lambda", "0.25", "--beta", "2",
            "--k", "3", "--top-k", "5", "--mode", "greedy", "--out", "o", "run",
        ])
        cfg = cli._apply_overrides(load_config(path), args)
        assert cfg.protocol == ProtocolConfig(
            lam=0.25, beta=2.0, horizon_k=3, top_k=5, max_len=12, decode_mode="greedy", seed=7
        )
        assert cfg.out_dir == Path.cwd() / "o"

    def test_no_flags_keep_the_file(self, tmp_path):
        path = write_tiny_config(tmp_path)
        args = cli._build_parser().parse_args(["--config", str(path), "run"])
        assert cli._apply_overrides(load_config(path), args) == load_config(path)

    def test_bad_override_exits_one(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        assert main(["--config", str(path), "--k", "0", "--out", str(tmp_path / "o"), "run"]) == 1
        assert capsys.readouterr().err.startswith("error: horizon_k must be >= 1")


class TestRunCommand:
    def test_outputs_reproducible(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "a"
        blobs = []
        for _ in range(2):
            assert main(["--config", str(path), "--out", str(out), "run"]) == 0
            blobs.append(
                ((out / "trace.csv").read_bytes(), (out / "summary.json").read_bytes())
            )
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == captured.out.splitlines()[1]

    def test_hash_headers_present(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "run"]) == 0
        cfg = load_config(path)
        cfg.out_dir = out
        chash = config_hash(cfg)
        assert (out / "trace.csv").read_text().splitlines()[0] == f"# config_hash={chash}"
        assert json.loads((out / "summary.json").read_text())["config_hash"] == chash

    def test_shipped_config_run_pinned(self, tmp_path, capsys):
        # sha256s of stdout, of the trace rows under the hash header and of
        # the summary but for its config_hash line, taken when default.cfg
        # still restated the models' settings and profiles that toydata and
        # metrics hold: dropping those keys moves no byte but the hash.
        out = tmp_path / "shipped"
        assert main(["--out", str(out), "run"]) == 0
        summary = (out / "summary.json").read_bytes().splitlines(keepends=True)
        digests = [
            hashlib.sha256(blob).hexdigest() for blob in (
                capsys.readouterr().out.encode("utf-8"),
                (out / "trace.csv").read_bytes().split(b"\n", 1)[1],
                b"".join(line for line in summary if not line.startswith(b'  "config_hash"')),
            )
        ]
        assert digests == [
            "525ea5a48f6585f5ab5039648f014e01b13dd3b548b04562840b3aa07f0f9777",
            "aa50416c14188c88088f67ec2c3643addeb684e84faabd1c81c66731553f3a00",
            "ed52a282fb7a58fdd34d0a9b7f2bc42b9fed49a14b04fb09a0fbb4eeaefda6b9",
        ]

    def test_seed_override_changes_output(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            assert main(["--config", str(path), "--seed", seed, "--out", str(out), "run"]) == 0
            texts.append(capsys.readouterr().out.splitlines()[0])
        assert texts[0] != texts[1]

    def test_missing_corpus_exits_one(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path, **{"corpus.generalist": "gone.txt"})
        assert main(["--config", str(path), "run"]) == 1
        assert "gone.txt" in capsys.readouterr().err

    def test_tiny_lambda_is_pure_drafter_decode(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "lam"
        args = ["--config", str(path), "--lambda", "1e-12", "--seed", "5", "--out", str(out), "run"]
        assert main(args) == 0
        text = capsys.readouterr().out.splitlines()[0]
        cfg = load_config(path)
        world = build_world(cfg)
        prompt = world.vocab.ids_of(["we", "ordered", "the"])
        baseline = autoregressive_decode(
            world.slm_plus, world.vocab, prompt,
            cfg.protocol.max_len, "stochastic", stream(5, ROLE_DRAFT),
        )
        assert text == world.vocab.text_of(baseline)


class TestSweepCommand:
    def test_grid_csv_and_svg(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "sw"
        assert main(["--config", str(path), "--out", str(out), "sweep"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "lambda,beta,alpha_mean,speedup,payload_up,payload_down,kl_first_token"
        assert len(lines) == 2 + 2 * 2
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_rows_and_chart_pinned(self, tmp_path):
        # sha256s of the rows under the hash header (which hashes the output
        # directory too) and of the chart, taken from a sweep that ran a
        # single-step session of each seed for kl_first_token: reading the
        # first tokens of the cell's own sessions moves no byte.
        path = write_tiny_config(tmp_path)
        out = tmp_path / "sw"
        assert main(["--config", str(path), "--out", str(out), "sweep"]) == 0
        rows = (out / "sweep.csv").read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(rows).hexdigest() == (
            "2d481d84d0af7ee55fa48dc42350ba47f895ca6ed2e13780a30cf26fe765d712")
        assert hashlib.sha256((out / "sweep.svg").read_bytes()).hexdigest() == (
            "112c6a7f0fb73a365b77749fce2eb1618a1c535eb3a7c71cb61c39f67c1c9ada")

    def test_one_session_per_seed_and_cell(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return run_session(*args, **kwargs)

        monkeypatch.setattr(cli, "run_session", counted)
        path = write_tiny_config(tmp_path)
        assert main(["--config", str(path), "--out", str(tmp_path / "sw"), "sweep"]) == 0
        cfg = load_config(path)
        assert len(calls) == len(cfg.lambda_list) * len(cfg.beta_list) * cfg.trials


class TestOracleCommand:
    def test_stable_report(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        reports = []
        for _ in range(2):
            assert main(["--config", str(path), "oracle", "we", "ordered"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert "Z=" in reports[0]

    def test_target_column_sums_near_one(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        assert main(["--config", str(path), "oracle"]) == 0
        out = capsys.readouterr().out
        rows = [l.split() for l in out.splitlines()[3:]]
        p_star = sum(float(r[5]) for r in rows)
        # Report shows the top 16 tokens only; most mass should be there.
        assert p_star > 0.5


class TestBadInputsExitOne:
    @pytest.mark.parametrize("key, value", [
        ("protocol.k", "four"),
        ("protocol.seed", "1.5"),
        ("sweep.trials", "1.5"),
        ("channel.latency_ms", "fast"),
        ("sweep.lambda_list", "a, b"),
        ("sweep.beta_list", ""),
        ("protocol.max_len", "12.0"),
    ])
    def test_unparsable_value(self, tmp_path, capsys, key, value):
        path = write_tiny_config(tmp_path, **{key: value})
        lines = path.read_text().splitlines()
        lineno = 1 + next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{lineno}: bad value for {key!r}: ")
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("channel.latency_ms", "nan"),
        ("channel.latency_ms", "inf"),
        ("channel.bandwidth_bps", "nan"),
    ])
    def test_non_finite_channel(self, tmp_path, capsys, key, value):
        path = write_tiny_config(tmp_path, **{key: value})
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "run"]) == 1
        assert capsys.readouterr().err.startswith("error: invalid channel parameters")
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("address", [
        "127.0.0.1:65536", "127.0.0.1:99999", "127.0.0.1:", ":80", "[]:80",
        # A bare IPv6 literal: its last group is no port, and ::1:5555 is
        # itself an address.
        "::1", "fe80::1", "::1:5555",
        pytest.param("127.0.0.1:\N{SUPERSCRIPT TWO}", id="non-ascii-digit"),
    ])
    @pytest.mark.parametrize("command", ["serve-cloud --bind", "run-edge --connect"])
    def test_bad_address(self, tmp_path, capsys, command, address):
        path = write_tiny_config(tmp_path)
        args = ["--config", str(path), "--out", str(tmp_path / "o"), *command.split(), address]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: expected HOST:PORT") and "Traceback" not in err
        assert not (tmp_path / "o").exists()  # refused before any frame log is opened

    def test_run_edge_top_k_past_the_vocabulary(self, tmp_path, capsys):
        # The session's intake checks top_k before the edge connects, so
        # the port, bound but not listening, is never tried.
        path = write_tiny_config(tmp_path)
        with socket.socket() as unheard:
            unheard.bind(("127.0.0.1", 0))
            address = "127.0.0.1:%d" % unheard.getsockname()[1]
            args = ["--config", str(path), "--out", str(tmp_path / "o"), "--top-k", "1000",
                    "run-edge", "--connect", address]
            assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: top_k 1000 exceeds vocabulary size") and "Traceback" not in err


def trace_rows(path):
    """The rows of a trace.csv under its header, as dicts."""
    lines = path.read_text().splitlines()
    return list(csv.DictReader(lines[1:]))


def serve_cloud_child(path, out, bind="127.0.0.1:0"):
    """``specsteer serve-cloud --bind BIND`` in a child process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.Popen(
        [sys.executable, "-m", "specsteer.cli", "--config", str(path), "--out", str(out),
         "serve-cloud", "--bind", bind],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


class TestSocketCommands:
    def test_two_sessions_into_one_out_dir(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "wire"
        codes = []
        for _ in range(2):
            # serve-cloud binds port 0 and prints the address it got before
            # it accepts; the edge connects to that address.
            with serve_cloud_child(path, out) as child:
                try:
                    first = child.stdout.readline()
                    assert first.startswith("listening on 127.0.0.1:"), first
                    address = first.split()[-1]
                    codes.append(main(["--config", str(path), "--out", str(out), "run-edge",
                                       "--connect", address]))
                    rest, err = child.communicate(timeout=30)
                except BaseException:
                    child.kill()
                    raise
            assert child.returncode == 0, err
            assert rest.startswith("served ")
        assert codes == [0, 0]
        edge_text = capsys.readouterr().out.splitlines()
        assert len(edge_text) == 2 and edge_text[0] == edge_text[1]

        # The in-process run of the same config: same text, and the same
        # trace rows but for the mean alpha, which only the cloud knows.
        ref = tmp_path / "ref"
        assert main(["--config", str(path), "--out", str(ref), "run"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == edge_text[0]
        cfg = load_config(path)
        cfg.out_dir = out
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == f"# config_hash={config_hash(cfg)}"
        wire_rows, ref_rows = trace_rows(out / "trace.csv"), trace_rows(ref / "trace.csv")
        assert wire_rows and all(row["alpha"] == "" for row in wire_rows)
        assert [{**row, "alpha": ""} for row in ref_rows] == wire_rows
        assert all(float(row["clock_ms"]) > 0 for row in wire_rows)

        # Both frame logs hold the two sessions, one after the other.
        for name in ("cloud_frames.bin", "edge_frames.bin"):
            assert scan_frame_log(str(out / name)) == []
        world = build_world(cfg)
        assert replay_cloud_log(
            str(out / "cloud_frames.bin"), world.llm, world.slm_minus, world.vocab) == []
        assert (out / "cloud_frames.bin").read_bytes() == (out / "edge_frames.bin").read_bytes()

    @pytest.mark.parametrize("text, address", [
        ("127.0.0.1:5555", ("127.0.0.1", 5555)),
        ("localhost:0", ("localhost", 0)),
        ("[fe80::1]:80", ("fe80::1", 80)),
        ("[::1]:5555", ("::1", 5555)),
    ])
    def test_address_parsing(self, text, address):
        assert cli._parse_hostport(text) == address
        assert cli._format_hostport(*address) == text

    @needs_ipv6
    def test_bracketed_ipv6_literal_on_both_ends(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "wire"
        with serve_cloud_child(path, out, "[::1]:0") as child:
            try:
                first = child.stdout.readline()
                # Announced in brackets, so that the edge passes it on verbatim.
                assert first.startswith("listening on [::1]:"), first
                code = main(["--config", str(path), "--out", str(out), "run-edge",
                             "--connect", first.split()[-1]])
                rest, err = child.communicate(timeout=30)
            except BaseException:
                child.kill()
                raise
        assert code == 0 and child.returncode == 0, err
        assert rest.startswith("served ")
        edge_text = capsys.readouterr().out
        assert main(["--config", str(path), "--out", str(tmp_path / "ref"), "run"]) == 0
        assert capsys.readouterr().out == edge_text

    def test_foreign_vocabulary_edge_is_an_error_on_both_ends(self, tmp_path, capsys):
        # The edge's private corpus adds a word, so its vocabulary hash
        # differs from the cloud's: the cloud refuses the handshake by its
        # one rule for errors and names the cause.
        path = write_tiny_config(tmp_path)
        foreign_dir = tmp_path / "foreign"
        foreign_dir.mkdir()
        foreign = write_tiny_config(foreign_dir)
        (foreign_dir / "priv.txt").write_text("we ordered the lasagna\n")
        out = tmp_path / "wire"
        with serve_cloud_child(path, out) as child:
            try:
                first = child.stdout.readline()
                assert first.startswith("listening on 127.0.0.1:"), first
                code = main(["--config", str(foreign), "--out", str(out / "edge"), "run-edge",
                             "--connect", first.split()[-1]])
                rest, err = child.communicate(timeout=30)
            except BaseException:
                child.kill()
                raise
        assert code == 1
        assert capsys.readouterr().err.startswith("error: session refused by cloud")
        assert child.returncode == 1 and rest == ""
        assert err.startswith("error: ") and "vocabulary hash mismatch" in err
        assert "Traceback" not in err
        world = build_world(load_config(path))
        log = str(out / "cloud_frames.bin")
        assert scan_frame_log(log) == []
        assert replay_cloud_log(log, world.llm, world.slm_minus, world.vocab) == []
