"""Command-line front end.

One subcommand per entry of COMMANDS. Output is CSV preceded by a metadata
block of '#' lines carrying the fully resolved configuration; reruns with
identical configuration and seed are byte identical. Exit codes: 0 success,
1 usage or configuration error, 2 protocol abort.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .attacks import AttackConfig, AttackKind
from .config import ConfigError, RunConfig
from .experiment import DETECTORS, ExperimentConfig, run_experiment
from .optimize import OptimizationSpec, optimize_mu, sweep_loss
from .protocol import run_protocol
from .rates import ProtocolParams, predicted_signature, secret_key_rate
from .simulation import DetectionRecord, OpticsConfig

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _write(out_path, cfg: RunConfig, command: str, header: str, rows, notes=(), blocks=()):
    """The metadata block, a '# key = value' line per note, the header, one
    CSV line per row, every value through _fmt; a file then gets the byte blocks."""
    lines = [f"# cowsim {__version__}", f"# command = {command}", *cfg.metadata_lines()]
    lines += [f"# {key} = {_fmt(value)}" for key, value in notes] + [header]
    text = "\n".join(lines + [",".join(_fmt(x) for x in row) for row in rows]) + "\n"
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(text.encode())
            fh.writelines(blocks)
    else:
        sys.stdout.write(text)


def _event_lines(record: DetectionRecord):
    """Yield f"{name},{slot >> 1},{slot & 1}\\n" for each detector's ascending
    slots, as one uint8 matrix of equal-length lines per digit count of slot >> 1."""
    for name, slots in zip(DETECTORS, (record.d_b, record.d_m1, record.d_m2)):
        cuts = [0, *np.searchsorted(slots >> 1, 10 ** np.arange(1, 19)).tolist(), len(slots)]
        for width, lo, hi in zip(range(1, 20), cuts, cuts[1:]):
            if lo < hi:
                line = np.frombuffer(f"{name},{'0' * width},0\n".encode(), dtype=np.uint8)
                lines, seq = np.tile(line, (hi - lo, 1)), slots[lo:hi] >> 1
                for col in range(len(name) + width, len(name), -1):  # last digit first
                    lines[:, col] = ord("0") + seq % 10
                    seq //= 10
                lines[:, -2] = ord("0") + (slots[lo:hi] & 1)
                yield lines


def cmd_keyrate(cfg: RunConfig, args) -> int:
    params = cfg.build(ProtocolParams)
    res = secret_key_rate(params, cfg.protocol(), cfg.pns_model(), cfg.rate_mode())
    _write(args.out, cfg, args.command,
           "protocol,v,loss_db,mu,r_s,q_opt,q_det,q_total,"
           "r,p_ir,i_ir,i_eve,feasible,r_sk_raw,r_sk",
           [(cfg["protocol"], params.v, params.loss_db, res.mu, res.r_s,
             res.qber.q_opt, res.qber.q_det, res.qber.q_total,
             res.eve.r, res.eve.p_ir, res.eve.i_ir, res.eve.i_eve,
             res.eve.feasible, res.r_sk_raw, res.r_sk)])
    return 0


def cmd_curve(cfg: RunConfig, args) -> int:
    points = sweep_loss(cfg.build(ProtocolParams), cfg.protocol_list(),
                        cfg.float_list("loss_grid"), cfg.pns_model(),
                        cfg.build(OptimizationSpec),
                        visibilities=cfg.float_list("visibilities"),
                        mode=cfg.rate_mode())
    _write(args.out, cfg, args.command, "protocol,V,loss_db,mu_star,r_sk",
           [(p.protocol.value, p.v, p.loss_db, p.mu_star, p.r_sk_star) for p in points])
    return 0


def cmd_optimize(cfg: RunConfig, args) -> int:
    opt = optimize_mu(cfg.build(ProtocolParams), cfg.protocol(), cfg.pns_model(),
                      cfg.build(OptimizationSpec), cfg.rate_mode())
    k = opt.keyrate
    _write(args.out, cfg, args.command,
           "protocol,v,loss_db,mu_star,r_s,q_total,i_eve,r_sk_raw,r_sk,all_zero",
           [(cfg["protocol"], cfg["v"], cfg["loss_db"], opt.mu_star, k.r_s,
             k.qber.q_total, k.eve.i_eve, k.r_sk_raw, k.r_sk, opt.all_zero)])
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    # main has made both files: samefile sees through symbolic and hard links
    if args.out and args.dump_events and os.path.samefile(args.out, args.dump_events):
        raise ConfigError("--out and --dump-events name the same file")
    params = cfg.build(ProtocolParams)
    attack = cfg.build(AttackConfig, kind=AttackKind(cfg["attack"]))
    report = run_protocol(cfg.build(OpticsConfig, params=params), cfg["n_symbols"],
                          cfg["seed"], attack=attack,
                          tolerance_sigmas=cfg["tolerance_sigmas"],
                          protocol=cfg.protocol(), model=cfg.pns_model())
    p_ir = attack.p_ir if attack.is_active() else 0.0
    pred_v, pred_i = predicted_signature(params, p_ir, cfg.protocol(), cfg.pns_model())
    sim, ann, q, est, dist = (report.sim, report.announcement, report.qber,
                              report.estimation, report.distill)
    n = sim.stream.n_symbols
    _write(args.out, cfg, args.command,
           "n_symbols,n_detected,n_ambiguous,n_sifted,sifted_rate,"
           "qber,qber_lo,qber_hi,v_10,v_d,abort,abort_reason,i_eve,"
           "shrink_fraction,n_secret,secret_fraction,empirical_r,"
           "monitoring_rate,predicted_v,predicted_i_eve",
           [(n, len(ann.detected_indices), len(ann.ambiguous_indices), dist.n_sifted,
             dist.n_sifted / n, *((q.value, q.lo, q.hi) if q else [float("nan")] * 3),
             sim.stats.v_10, sim.stats.v_d, est.abort, est.reason.value, est.i_eve,
             dist.shrink_fraction, dist.n_secret, dist.n_secret / n, sim.empirical_r,
             sim.monitoring_rate_per_pulse, pred_v, pred_i)])
    if args.dump_events:
        _write(args.dump_events, cfg, "simulate-events", "detector,sequence_index,slot_index",
               (), blocks=_event_lines(sim.record))
    return 2 if est.abort else 0


def cmd_experiment(cfg: RunConfig, args) -> int:
    config = cfg.build(ExperimentConfig, params=cfg.build(ProtocolParams),
                       pattern=cfg["frame_pattern"])
    result = run_experiment(config, cfg["seed"])
    q = result.qber
    _write(args.out, cfg, args.command, "slot_time_ns,detector,count",
           [(t, name, c) for name in DETECTORS
            for t, c in zip(result.slot_times_ns.tolist(), result.counts[name].tolist())],
           notes=[("raw_rate_hz", result.raw_rate_hz)]
           + [(f"rate_hz_{name}", result.rate_hz[name]) for name in DETECTORS]
           + [("data_qber", q.value if q else float("nan")),
              ("v_10", result.stats.v_10), ("v_d", result.stats.v_d)])
    return 0


COMMANDS = {"keyrate": cmd_keyrate, "curve": cmd_curve, "optimize": cmd_optimize,
            "simulate": cmd_simulate, "experiment": cmd_experiment}

# each dedicated flag is a shorthand for --set KEY=VALUE, checked the same way
FLAGS = {"--seed": "seed", "--protocol": "protocol", "--pns-model": "pns_model"}
_PARSER = []  # the one parser, built by the first main call rather than at import


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: one line, exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    if not _PARSER:  # parsing changes no parser state: --set appends to a copy
        parser = _Parser(
            prog="cowsim",
            description="Simulator and key-rate analysis for one-way time-bin QKD")
        parser.add_argument("--version", action="version", version=f"cowsim {__version__}")
        subs = parser.add_subparsers(dest="command", required=True)
        for name in COMMANDS:
            sub = subs.add_parser(name)
            sub.add_argument("--config", help="flat key = value configuration file")
            sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                             help="override one configuration key (repeatable)")
            sub.add_argument("--out", help="output path (default: stdout)")
            for flag, key in FLAGS.items():
                sub.add_argument(flag, dest=key, help=f"same as --set {key}=VALUE")
            if name == "simulate":
                sub.add_argument("--dump-events", dest="dump_events",
                                 help="also write per-click events to this path")
        _PARSER.append(parser)
    created = []
    try:
        args = _PARSER[0].parse_args(argv)
        # the dedicated flags are the last overrides
        flags = [f"{key}={getattr(args, key)}" for key in FLAGS.values()
                 if getattr(args, key) is not None]
        cfg = RunConfig.from_sources(args.config, args.set + flags,
                                     experiment=args.command == "experiment")
        paths = [p for p in (args.out, getattr(args, "dump_events", None)) if p]
        created = [p for p in paths if not os.path.exists(p)]
        for path in paths:  # fail before the run, appending: that truncates nothing
            open(path, "ab").close()
        return COMMANDS[args.command](cfg, args)
    except (ValueError, OSError, MemoryError) as exc:
        for path in filter(os.path.exists, created):  # no empty or partial output
            os.remove(path)
        print(f"cowsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
