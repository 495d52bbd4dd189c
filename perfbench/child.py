"""One ``arfrf`` command in a child process, traced or speed-sampled.

Usage: python3 perfbench/child.py spans|speed OUT_FILE ARFRF_ARGS...

The exit code and stdout are those of the command. With ``spans`` the
command runs under the tracer, and its spans go to OUT_FILE for the parent
benchmark process to merge. With ``speed`` it runs under the speed sampler
from before ``import arfrf.cli`` on, and OUT_FILE gets the probe times as a
JSON list.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    mode, out_file, args = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    if mode == "speed":
        from perfbench.speed import SpeedSampler

        speed = SpeedSampler()
        try:
            with speed:
                import arfrf.cli

                return arfrf.cli.main(args)
        finally:
            out_file.write_text(repr(speed.took))
    import arfrf.cli

    from perfbench.tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = arfrf.cli.main(args)
    tracer.save(out_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
