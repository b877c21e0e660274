"""Command-line front end.

One subcommand per entry of COMMANDS. Output is CSV preceded by a metadata
block of '#' lines carrying the fully resolved configuration; reruns with
identical configuration and seed are byte identical. Exit codes: 0 success,
1 usage or configuration error, 2 protocol abort.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import ConfigError, RunConfig
from .experiment import DETECTORS, run_experiment
from .optimize import optimize_mu, sweep_loss
from .protocol import run_protocol
from .rates import predicted_signature, secret_key_rate

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _emit(out_path, lines):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _metadata(cfg: RunConfig, command: str) -> list[str]:
    return [f"# cowsim {__version__}", f"# command = {command}"] + cfg.metadata_lines()


def cmd_keyrate(cfg: RunConfig, args) -> int:
    params = cfg.params()
    res = secret_key_rate(params, cfg.protocol(), cfg.pns_model(), cfg.rate_mode())
    row = (cfg["protocol"], params.v, params.loss_db, res.mu, res.r_s,
           res.qber.q_opt, res.qber.q_det, res.qber.q_total,
           res.eve.r, res.eve.p_ir, res.eve.i_ir, res.eve.i_eve,
           res.eve.feasible, res.r_sk_raw, res.r_sk)
    lines = _metadata(cfg, args.command)
    lines.append("protocol,v,loss_db,mu,r_s,q_opt,q_det,q_total,"
                 "r,p_ir,i_ir,i_eve,feasible,r_sk_raw,r_sk")
    lines.append(",".join(_fmt(x) for x in row))
    _emit(args.out, lines)
    return 0


def cmd_curve(cfg: RunConfig, args) -> int:
    points = sweep_loss(cfg.params(), cfg.protocol_list(), cfg.float_list("loss_grid"),
                        cfg.pns_model(), cfg.optimization_spec(),
                        visibilities=cfg.float_list("visibilities"),
                        mode=cfg.rate_mode())
    lines = _metadata(cfg, args.command)
    lines.append("protocol,V,loss_db,mu_star,r_sk")
    for p in points:
        lines.append(",".join(_fmt(x) for x in (
            p.protocol.value, p.v, p.loss_db, p.mu_star, p.r_sk_star)))
    _emit(args.out, lines)
    return 0


def cmd_optimize(cfg: RunConfig, args) -> int:
    opt = optimize_mu(cfg.params(), cfg.protocol(), cfg.pns_model(),
                      cfg.optimization_spec(), cfg.rate_mode())
    lines = _metadata(cfg, args.command)
    lines.append("protocol,v,loss_db,mu_star,r_s,q_total,i_eve,r_sk_raw,r_sk,all_zero")
    k = opt.keyrate
    lines.append(",".join(_fmt(x) for x in (
        cfg["protocol"], cfg["v"], cfg["loss_db"], opt.mu_star, k.r_s,
        k.qber.q_total, k.eve.i_eve, k.r_sk_raw, k.r_sk, opt.all_zero)))
    _emit(args.out, lines)
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    attack = cfg.attack_config()
    report = run_protocol(cfg.optics(), cfg["n_symbols"], cfg["seed"],
                          attack=attack,
                          tolerance_sigmas=cfg["tolerance_sigmas"],
                          protocol=cfg.protocol(), model=cfg.pns_model())
    lines = _metadata(cfg, args.command)
    p_ir = attack.p_ir if attack.is_active() else 0.0
    pred_v, pred_i = predicted_signature(cfg.params(), p_ir, cfg.protocol(),
                                         cfg.pns_model())
    sim, ann, q, est, dist = (report.sim, report.announcement, report.qber,
                              report.estimation, report.distill)
    n = sim.stream.n_symbols
    lines.append("n_symbols,n_detected,n_ambiguous,n_sifted,sifted_rate,"
                 "qber,qber_lo,qber_hi,v_10,v_d,abort,abort_reason,i_eve,"
                 "shrink_fraction,n_secret,secret_fraction,empirical_r,"
                 "monitoring_rate,predicted_v,predicted_i_eve")
    lines.append(",".join(_fmt(x) for x in (
        n, len(ann.detected_indices), len(ann.ambiguous_indices),
        dist.n_sifted, dist.n_sifted / n,
        q.value if q else float("nan"),
        q.lo if q else float("nan"),
        q.hi if q else float("nan"),
        est.v_10, est.v_d, est.abort, est.reason.value,
        est.i_eve, dist.shrink_fraction, dist.n_secret,
        dist.n_secret / n, sim.empirical_r,
        sim.monitoring_rate_per_pulse, pred_v, pred_i)))
    _emit(args.out, lines)
    if args.dump_events:
        ev = _metadata(cfg, "simulate-events")
        ev.append("detector,sequence_index,slot_index")
        rec = sim.record
        for name, g in (("D_B", rec.d_b), ("D_M1", rec.d_m1), ("D_M2", rec.d_m2)):
            for s, sl in zip((g >> 1).tolist(), (g & 1).tolist()):
                ev.append(f"{name},{s},{sl}")
        _emit(args.dump_events, ev)
    return 2 if est.abort else 0


def cmd_experiment(cfg: RunConfig, args) -> int:
    result = run_experiment(cfg.experiment(), cfg["seed"])
    lines = _metadata(cfg, args.command)
    lines.append(f"# raw_rate_hz = {_fmt(result.raw_rate_hz)}")
    for name in DETECTORS:
        lines.append(f"# rate_hz_{name} = {_fmt(result.rate_hz[name])}")
    q = result.qber
    lines.append(f"# data_qber = {_fmt(q.value if q else float('nan'))}")
    lines.append(f"# v_10 = {_fmt(result.stats.v_10)}")
    lines.append(f"# v_d = {_fmt(result.stats.v_d)}")
    lines.append("slot_time_ns,detector,count")
    for name in DETECTORS:
        for slot_time, count in zip(result.slot_times_ns, result.counts[name]):
            lines.append(f"{_fmt(float(slot_time))},{name},{int(count)}")
    _emit(args.out, lines)
    return 0


COMMANDS = {"keyrate": cmd_keyrate, "curve": cmd_curve, "optimize": cmd_optimize,
            "simulate": cmd_simulate, "experiment": cmd_experiment}

# each dedicated flag is a shorthand for --set KEY=VALUE, checked the same way
FLAGS = {"--seed": "seed", "--protocol": "protocol", "--pns-model": "pns_model"}


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: one line, exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
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
    try:
        args = parser.parse_args(argv)
        # the dedicated flags are the last overrides
        flags = [f"{key}={getattr(args, key)}" for key in FLAGS.values()
                 if getattr(args, key) is not None]
        cfg = RunConfig.from_sources(args.config, args.set + flags,
                                     experiment=args.command == "experiment")
        return COMMANDS[args.command](cfg, args)
    except (ValueError, OSError) as exc:
        print(f"cowsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
