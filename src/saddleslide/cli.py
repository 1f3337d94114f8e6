"""Command line front end.

Subcommands:
  run       execute one experiment config and write trace/summary/plot files
  certify   sample-check the inexact oracle certificate for the configured
            instance at its synthesized (M, delta)
  spectrum  print and optionally export the network coupling spectrum

Exit codes: 0 on success, 2 on configuration or usage errors, 3 when
certification finds a violating triple.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np
import yaml

from .errors import (
    CertificationError,
    ConfigurationError,
    DimensionError,
    DomainError,
    ParameterError,
)
from .harness import RunConfig, build_pipeline, emit_outputs, run_experiment, write_files
from .instances import certify_inexact_oracle
from .network import build_topology

_CONFIG_ERRORS = (ConfigurationError, ParameterError, DimensionError,
                  DomainError, OSError, yaml.YAMLError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddleslide",
        description="Sliding solver for decentralized saddle-point problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
            ("run", "run one experiment config"),
            ("certify", "check the inexact oracle certificate by sampling"),
            ("spectrum", "inspect the network coupling spectrum")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="experiment config file")
        p.add_argument("--seed", type=int, default=None, metavar="INT",
                       help="override the run seed from the config")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="override the output directory from the config")
    return parser


def _cmd_run(config: RunConfig) -> int:
    report = run_experiment(config)
    if config.out_dir is not None:
        paths = emit_outputs(report, report.trace, config.out_dir)
    else:
        paths = []
    for line in report.summary_lines():
        print(line)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_certify(config: RunConfig) -> int:
    _, spp, _, vi = build_pipeline(config)
    report = certify_inexact_oracle(vi.H, spp.stacked_set(), vi.M, vi.delta,
                                    triples=10000, seed=config.seed)
    print(str(report))
    if config.out_dir is not None:
        for path in write_files(config.out_dir, {"certificate.txt": str(report) + "\n"}):
            print(f"wrote {path}")
    return 0


def _cmd_spectrum(config: RunConfig) -> int:
    net = build_topology(config.network_kind, config.m, p=config.network_p,
                         seed=config.network_seed)
    residual = float(np.linalg.norm(net.W @ net.W - net.W_tilde))
    print(f"m {net.m}")
    print(f"lambda_max {repr(net.lambda_max)}")
    print(f"lambda_min_plus {repr(net.lambda_min_plus)}")
    print(f"chi {repr(net.chi)}")
    print(f"sqrt_residual_fro {repr(residual)}")
    print("eigenvalues " + " ".join(repr(float(v)) for v in net.eigenvalues))
    if config.out_dir is not None:
        texts = {}
        for name, matrix in (("laplacian.csv", net.W_tilde), ("sqrt.csv", net.W)):
            buf = io.StringIO()
            np.savetxt(buf, matrix, delimiter=",")
            texts[name] = buf.getvalue()
        for path in write_files(config.out_dir, texts):
            print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_yaml_file(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.out_dir = args.out
        config.validate()
        if args.command == "run":
            return _cmd_run(config)
        if args.command == "certify":
            return _cmd_certify(config)
        return _cmd_spectrum(config)
    except CertificationError as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
