"""One set-up in a fresh interpreter, under the speed probe.

    python3 perfbench/setup_once.py SPEED_FILE [ENDIFF_ARGV...]

Started by run.py with `src/` on PYTHONPATH. Arms the probe, imports
`endiff.cli`, runs `endiff.cli.main(ENDIFF_ARGV)` when an argv is given (the
workload's synth), and writes the probe's speed to SPEED_FILE. Exits with the
command's exit code.
"""

import sys

from probe import SpeedProbe

if __name__ == "__main__":
    speed_file, argv = sys.argv[1], sys.argv[2:]
    with SpeedProbe("python") as probe:
        import endiff.cli

        rc = endiff.cli.main(argv) if argv else 0
    with open(speed_file, "w") as f:
        f.write(repr(probe.speed()))
    sys.exit(rc)
