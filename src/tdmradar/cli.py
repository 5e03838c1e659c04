"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 demo (acceptance)
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import fileio
from .angle import CalibrationError, estimate_calibration
from .config import (
    ArrayGeometry,
    InvalidParameterError,
    RadarParams,
)
from .demos import ALL_DEMOS
from .dsp import CfarConfig
from .pipeline import run_pipeline
from .simulate import Scene, simulate_frame_pair
from .unfold import UnsupportedGeometryError

USAGE_EXIT = 1
DATA_EXIT = 2
DEMO_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _sibling_path(path: str, suffix: str) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + suffix + p.suffix))


def _cmd_simulate(args) -> int:
    params = RadarParams.from_json(args.params)
    geometry = ArrayGeometry.from_json(args.geometry)
    scene = Scene.from_json(args.scene)
    if args.seed is not None:
        scene = Scene(targets=scene.targets, snr_db=scene.snr_db, rng_seed=args.seed)
    frame_a, frame_b = simulate_frame_pair(scene, params, geometry)
    fileio.write_cube(frame_a, args.out_a)
    fileio.write_cube(frame_b, args.out_b)
    print(f"wrote {args.out_a} and {args.out_b}")
    return 0


def _cmd_process(args) -> int:
    params = RadarParams.from_json(args.params)
    geometry = ArrayGeometry.from_json(args.geometry)
    cube_a = fileio.read_cube(args.in_a, params)
    cube_b = fileio.read_cube(args.in_b, params)
    cal = fileio.read_calibration_json(args.cal) if args.cal else None
    cfar = CfarConfig(pfa=args.pfa) if args.pfa is not None else CfarConfig()

    result = run_pipeline(cube_a, cube_b, params, geometry, cal=cal, cfar=cfar,
                          cartesian=args.cartesian)
    map_b_path = _sibling_path(args.out_map, "_b")
    maps = ((result.cartesian_a, result.cartesian_b) if args.cartesian
            else (result.map_a, result.map_b))
    for rmap, path in zip(maps, (args.out_map, map_b_path)):
        fileio.write_map(rmap, path)
    fileio.write_detections_json(result.detections, args.out_det)
    print(f"wrote {args.out_map}, {map_b_path} and {args.out_det} "
          f"({len(result.detections)} detections)")
    return 0


def _cmd_calibrate(args) -> int:
    params = RadarParams.from_json(args.params)
    geometry = ArrayGeometry.from_json(args.geometry)
    cube = fileio.read_cube(args.infile, params)
    cal = estimate_calibration(cube, args.range, args.azimuth, geometry)
    fileio.write_calibration_json(cal, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_demo(args) -> int:
    start = time.perf_counter()
    result = ALL_DEMOS[args.name]()
    elapsed = time.perf_counter() - start
    print(f"demo {result.name}")
    for line in result.lines:
        print("  " + line)
    print(f"  {'PASS' if result.passed else 'FAIL'} ({elapsed:.2f} s)")
    return 0 if result.passed else DEMO_EXIT


def _cmd_export_pgm(args) -> int:
    rmap = fileio.read_map(args.infile)
    fileio.export_pgm(rmap, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tdmradar",
                     description="Staggered-TDM MIMO FMCW radar simulator and processor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a staggered frame pair")
    p.add_argument("--scene", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("process", help="run the receive pipeline on a frame pair")
    p.add_argument("--in-a", required=True)
    p.add_argument("--in-b", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--cal", default=None)
    p.add_argument("--out-map", required=True,
                   help="frame-a map; the frame-b map lands next to it with a _b suffix")
    p.add_argument("--out-det", required=True)
    p.add_argument("--cartesian", action="store_true")
    p.add_argument("--pfa", type=float, default=None)
    p.set_defaults(func=_cmd_process)

    p = sub.add_parser("calibrate", help="estimate channel gains from a corner reflector")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--range", type=float, required=True)
    p.add_argument("--azimuth", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("demo", help="run a reference experiment and print pass/fail")
    p.add_argument("name", choices=sorted(ALL_DEMOS))
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("export-pgm", help="render a map file as 16-bit grayscale PGM")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_pgm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, UnsupportedGeometryError, CalibrationError,
            fileio.CubeFormatError, fileio.MapFormatError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"tdmradar: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
