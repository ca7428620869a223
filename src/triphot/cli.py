"""Command line interface.

Subcommands: verify (self-check suites), sweep (analytic fringe tables),
mc (seeded Monte Carlo counting), stokes (state observables), synth (plate
synthesis for trit transitions), info (version and conventions).

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 I/O error.

Importing this module loads neither numpy nor the computing modules: each
`cmd_*` imports what it runs on first use, so `info` starts without numpy and
`stokes` without `experiment`, `synthesis`, `io` or `verify`.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys

from . import __version__
from .conventions import (ANALYSIS_CHOICES, FREE, RETARDANCE_NAMES, TRIT_DIGITS, VERIFY_GRID,
                          VERIFY_SAMPLES, VERIFY_SEED)
from .errors import ConfigError

_ANGLE_RE = re.compile(r"^([+-]?[\d.]*)\s*pi\s*(?:/\s*([\d.]+))?$")
# An argument word that starts with '-' and reads as a value, not an option:
# a number ('-2', '-.5', '-1e-3', amplitudes '-0.5,0.5,0.7') or a 'pi' form
# ('-pi/2').  argparse before 3.13 takes only a lone negative number so.
_NEGATIVE_VALUE_RE = re.compile(r"-(?:\.?\d|pi)", re.IGNORECASE)


def parse_angle(text: str, degrees: bool = False) -> float:
    """Parse an angle: plain number (radians, or degrees with --deg) or a
    'pi' expression such as 'pi', '-pi/2', '3pi/8'."""
    text = text.strip().lower()
    match = _ANGLE_RE.match(text)
    try:
        if match:
            num, den = match.groups()
            coeff = float(num) if num not in ("", "+", "-") else float(num + "1")
            value = coeff * math.pi / (float(den) if den else 1.0)
        else:
            value = float(text)
            value = math.radians(value) if degrees else value
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"angle must be finite, got {text!r}")
    return value


@contextlib.contextmanager
def _flag_errors(flag: str):
    """Re-raise a ValueError from the block as a ConfigError naming `flag`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _flag_angle(flag: str, text: str, degrees: bool, parse=parse_angle):
    """`parse` (text, degrees) with the flag named in its error."""
    with _flag_errors(flag):
        return parse(text, degrees)


def _echo_config(cfg) -> None:
    import yaml

    from . import io

    print(yaml.safe_dump({"resolved_config": io.config_to_mapping(cfg)}, sort_keys=False), end="")


def _parse_retardance_flag(text: str, degrees: bool):
    name = text.strip().lower()
    return name if name in RETARDANCE_NAMES else parse_angle(name, degrees)


# The `sweep`/`mc` override flags: (flag, config section or None for the top
# level, field, parser of the flag's text with --deg or None, argparse keywords).
_OVERRIDES = (
    ("--phi", "source", "phase", parse_angle, dict(help="override source phase (radians or 'pi' form)")),
    ("--chi", "plate", "angle", parse_angle, dict(help="override plate angle")),
    ("--retardance", "plate", "retardance", _parse_retardance_flag,
     dict(help="override plate retardance ('half', 'quarter', radians or 'pi' form)")),
    ("--analysis", None, "analysis", None, dict(choices=ANALYSIS_CHOICES, help="override analysis block")),
    ("--eta1", None, "eta1", None, dict(type=float, help="override detector 1 efficiency")),
    ("--eta2", None, "eta2", None, dict(type=float, help="override detector 2 efficiency")),
    ("--pair-rate", "source", "pair_rate", None, dict(type=float, help="override pair rate (1/s)")),
    ("--accidental-rate", None, "accidental_rate", None,
     dict(type=float, help="override accidental rate (1/s)")),
    ("--t20", "source", "t20", None, dict(type=float, help="override |2,0> arm amplitude transmission")),
    ("--t02", "source", "t02", None, dict(type=float, help="override |0,2> arm amplitude transmission")),
    ("--jitter", "source", "phase_jitter", None, dict(type=float, help="override source phase jitter (radians)")),
)


def _apply_overrides(cfg, args):
    """Set the given flags on `cfg`'s mapping and validate it once, as a config file."""
    from . import io

    mapping = io.config_to_mapping(cfg)
    for flag, section, field, parse, _ in _OVERRIDES:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            node = mapping[section] if section else mapping
            node[field] = _flag_angle(flag, value, args.deg, parse) if parse else value
    return io.config_from_mapping(mapping)


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    for flag, _, _, _, keywords in _OVERRIDES:
        parser.add_argument(flag, **keywords)
    parser.add_argument("--deg", action="store_true", help="interpret numeric angles as degrees")


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_checks(args.grid, args.samples, args.seed)
    print(f"triphot verify: grid {args.grid}x{args.grid}, {args.samples} samples, seed {args.seed}")
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"  {res.name:<46} max residual {res.residual:.3e}  tol {res.tol:.0e}  {status}")
    if all(res.passed for res in results):
        print("verification PASSED")
        return 0
    print("verification FAILED")
    return 1


def cmd_sweep(args) -> int:
    from . import io
    from .experiment import sweep

    cfg = _apply_overrides(io.load_config(args.config), args)
    start = _flag_angle("--start", args.start, args.deg) if args.start is not None else 0.0
    full_range = 2.0 * math.pi if args.param == "phi" else math.pi
    stop = _flag_angle("--stop", args.stop, args.deg) if args.stop is not None else full_range
    table = sweep(cfg, args.param, start, stop, args.steps)
    _echo_config(cfg)
    print(f"sweep: {args.param} from {start:.12g} to {stop:.12g} in {args.steps} steps")
    if args.output.endswith((".yaml", ".yml")):
        io.write_sweep_yaml(table, args.output)
    else:
        io.write_sweep_csv(table, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_mc(args) -> int:
    from . import io
    from .experiment import simulate_counts

    cfg = _apply_overrides(io.load_config(args.config), args)
    table = simulate_counts(cfg, args.seed, args.duration, args.bin)
    _echo_config(cfg)
    run_meta = {"seed": args.seed, "duration": args.duration, "bin": args.bin}
    print(f"mc: {len(table)} bins, run {run_meta}")
    # Python ints: an int64 sum wraps once bins hold over 2**63 / len(table) each
    total = sum(table.counts.tolist())
    print(f"total coincidences: {total} (mean rate {total / (len(table) * args.bin):.6g}/s)")
    if args.output.endswith((".yaml", ".yml")):
        io.write_counts_yaml(table, cfg, args.output, run_meta)
    else:
        io.write_counts_csv(table, cfg, args.output, run_meta)
    print(f"wrote {args.output}")
    return 0


_FOCK_NAMES = {(2, 0): 0, (1, 1): 1, (0, 2): 2}


def _trit_label(text: str) -> str | None:
    """'plus', 'minus' or 'zero' from a label such as 'Psi_minus', else None."""
    label = text.strip().lower().removeprefix("psi_")
    return label if label in TRIT_DIGITS else None


def parse_state(text: str):
    """State vector of a spec: trit label ('psi_plus', 'minus', ...), Fock pair
    'Nx,Ny', or three comma-separated complex amplitudes (normalized automatically)."""
    from . import qutrit

    text = text.strip()
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        label = _trit_label(text)
        if label is None:
            raise ConfigError(f"unknown state label {text!r}")
        return qutrit.trit_basis(label)
    if len(parts) == 2:
        try:
            pair = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ConfigError(f"Fock state must be two integers, got {text!r}") from None
        if pair not in _FOCK_NAMES:
            raise ConfigError(f"Fock occupation must be one of 2,0 / 1,1 / 0,2, got {text!r}")
        return qutrit.fock_basis(_FOCK_NAMES[pair])
    if len(parts) == 3:
        try:
            amps = [complex(p) for p in parts]
        except ValueError:
            raise ConfigError(f"cannot parse amplitudes {text!r} (use e.g. '1,0,0.5+0.5j')") from None
        try:
            return qutrit.make_state(*amps)
        except ValueError as exc:
            raise ConfigError(f"state {text!r}: {exc}") from None
    raise ConfigError(f"cannot parse state {text!r}")


def cmd_stokes(args) -> int:
    from . import observables

    state = parse_state(args.state)
    vec = observables.stokes(state)
    corr = observables.correlators(state)
    amps = ", ".join(f"{c.real:+.6f}{c.imag:+.6f}j" for c in state)
    print(f"state amplitudes (c1, c2, c3): [{amps}]")
    print(f"stokes: s0={vec.s0:.12g} s1={vec.s1:.12g} s2={vec.s2:.12g} s3={vec.s3:.12g}")
    print(f"degree of polarization P = {observables.degree_of_polarization(state):.12g}")
    print(f"correlators: gxy={corr.gxy:.12g} gxx={corr.gxx:.12g} gyy={corr.gyy:.12g}")
    return 0


_PLATE_NAMES = {"hwp": RETARDANCE_NAMES["half"], "qwp": RETARDANCE_NAMES["quarter"], "free": FREE}


def _plate_name(retardance: float) -> str:
    for name, value in RETARDANCE_NAMES.items():
        if abs(retardance - value) < 1e-12:
            return f"{name}-wave"
    return f"retardance {retardance:.9g} rad"


def cmd_synth(args) -> int:
    from . import qutrit, synthesis
    from .experiment import SourceSpec, source_state

    parts = re.split(r"->|→", args.transition)
    if len(parts) != 2:
        raise ConfigError(
            f"cannot parse transition {args.transition!r} (expected e.g. 'minus->zero')"
        )
    source = _trit_label(parts[0])
    if source is None:
        raise ConfigError(f"unknown trit label {parts[0].strip()!r} (use plus, minus or zero)")
    input_state = qutrit.trit_basis(source)
    target = parse_state(parts[1])

    plates = [p.strip().lower() for p in args.plates.split(",")]
    if "" in plates:
        raise ConfigError(f"--plates: empty plate kind in {args.plates!r} (use hwp, qwp or free)")
    unknown = [p for p in plates if p not in _PLATE_NAMES]
    if unknown:
        raise ConfigError(f"--plates: unknown plate kind(s) {unknown} (use hwp, qwp or free)")
    with _flag_errors("--grid-density"):
        synthesis.check_grid_density(args.grid_density)
    with _flag_errors("--tol"):
        synthesis.check_refine_tol(args.tol)
    # Source-phase handling: an explicit --phi pins the input to the matching
    # source setting; '--phi free' (the default for plus/minus inputs) lets
    # the search retune the source phase alongside the plates.
    optimize_phase = False
    if args.phi is None:
        optimize_phase = source in ("plus", "minus")
    elif args.phi.strip().lower() == "free":
        optimize_phase = True
    else:
        phi = _flag_angle("--phi", args.phi, args.deg)
        pinned = source_state(SourceSpec(phase=phi))
        if not qutrit.states_equal(pinned, input_state, tol=1e-9):
            raise ConfigError(
                f"--phi {args.phi} prepares a source state inconsistent with input "
                f"'{source}' (expected phi = 0 for plus, pi for minus)"
            )
    if optimize_phase and source == "zero":
        raise ConfigError("--phi free: source-phase optimization needs a plus or minus input")

    with _flag_errors("--plates"):  # the states are valid: only the plate count can fail
        problem = synthesis.SynthesisProblem(
            input_state=input_state,
            target=target,
            budget=len(plates),
            retardances=tuple(_PLATE_NAMES[p] for p in plates),
            optimize_source_phase=optimize_phase,
        )
    result = synthesis.synthesize(problem, args.grid_density, args.tol, args.seed)
    print(f"transition: {source} -> {parts[1].strip()} (budget {len(plates)}, plates {args.plates})")
    for k, spec in enumerate(result.plates, start=1):
        print(f"  plate {k}: {_plate_name(spec.retardance)} at chi = {spec.angle:.9f} rad")
    if result.source_phase is not None:
        print(f"  source phase phi = {result.source_phase:.9f} rad")
    print(f"fidelity: {result.fidelity:.15f}")
    print(f"reachability: {synthesis.reachability_report(problem, result)}")
    print(f"bound: F_max = {result.fidelity_bound:.15f} (any plate sequence)")
    print(f"objective evaluations: {result.evaluations}")
    return 0


def cmd_info(args) -> int:
    print(f"triphot {__version__}")
    print("basis: |2,0>, |1,1>, |0,2> (photon counts in x and y polarization modes)")
    print("trit basis: psi_plus = (|2,0>+|0,2>)/sqrt2, psi_minus = (|2,0>-|0,2>)/sqrt2, psi_zero = |1,1>")
    digits = ", ".join(f"{label} -> {digit}" for label, digit in TRIT_DIGITS.items())
    print(f"ternary digit assignment: {digits}")
    print("retarder convention: J = R(chi) diag(e^{+i d/2}, e^{-i d/2}) R(-chi),")
    print("  pinned by the quarter-wave interference law at chi=pi/8, phi=pi/2")
    print("angles: radians everywhere (CLI accepts 'pi' forms and --deg)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triphot",
        description="Polarization qutrit simulator for collinear photon pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the closed-form, lift-oracle and invariance suites")
    p.add_argument("--grid", type=int, default=VERIFY_GRID, help="grid points per axis (default %(default)s)")
    p.add_argument("--samples", type=int, default=VERIFY_SAMPLES,
                   help="random samples per suite (default %(default)s)")
    p.add_argument("--seed", type=int, default=VERIFY_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="write an analytic rate sweep as CSV (or YAML)")
    p.add_argument("config", help="experiment config file (YAML)")
    p.add_argument("--param", choices=["phi", "chi"], required=True)
    p.add_argument("--start", help="sweep start (default 0)")
    p.add_argument("--stop", help="sweep stop (default 2pi for phi, pi for chi)")
    p.add_argument("--steps", type=int, default=201)
    p.add_argument("-o", "--output", required=True)
    _add_override_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mc", help="simulate binned coincidence counting")
    p.add_argument("config", help="experiment config file (YAML)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, required=True, help="simulated seconds")
    p.add_argument("--bin", type=float, default=1.0, help="bin width in seconds")
    p.add_argument("-o", "--output", required=True)
    _add_override_flags(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("stokes", help="print Stokes parameters, P and correlators of a state")
    p.add_argument("state", help="trit label, 'Nx,Ny' Fock pair, or three complex amplitudes")
    p.set_defaults(func=cmd_stokes)

    p = sub.add_parser(
        "synth",
        help="search plate settings for a transition from a trit state",
        description="Find plate settings from a trit state to any state.  One hwp or qwp "
        "plate is solved in closed form; two or more plates, or a 'free' plate, run a grid "
        "search plus Newton refinement on the fidelity's exact derivatives, the only path "
        "that --grid-density, --tol and --seed act on.  Plates keep the degree of "
        "polarization P, so no plate sequence beats F_max = cos^2((asin P_s - asin P_t)/2); "
        "the search stops at the first plate assignment that reaches it.  'objective "
        "evaluations' counts kernel samples of the assignments searched: 16 (64 with a "
        "free phase) per one-plate assignment, plus grid points and the refinement's "
        "stencil and line-search samples.",
    )
    p.add_argument("transition", help="trit label -> any state, e.g. 'minus->zero' or 'zero->2,0'")
    p.add_argument("--plates", default="hwp", help="comma list per plate: hwp, qwp or free")
    p.add_argument("--phi", help="source phase: radians, 'pi' forms, or 'free' (default: free for plus/minus)")
    p.add_argument("--grid-density", dest="grid_density", type=int, default=24,
                   help="grid points per angle of the multi-plate and free search (default 24)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="largest parameter step, in radians, at which the refinement of "
                   "the multi-plate and free search stops (default 1e-8)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the multi-plate and free search (used above 200 000 grid points)")
    p.add_argument("--deg", action="store_true", help="interpret numeric angles as degrees")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("info", help="print version and conventions")
    p.set_defaults(func=cmd_info)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_VALUE_RE
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
