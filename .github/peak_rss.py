"""Run a command and check its exit status and its peak resident set size.

Usage::

    python .github/peak_rss.py --below MB [--status N] -- CMD...

``CMD`` runs as the one child process, with this process's environment
and standard streams.  Once it exits, its peak RSS is read as the
children's ``ru_maxrss`` (KiB on Linux) and printed to stderr with the
exit status.  Exits 0 when the status is ``N`` (0 by default) and the
peak is below ``MB`` megabytes, 1 otherwise, and 2 on a command line that
does not parse.
"""

import argparse
import resource
import shlex
import subprocess
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(usage="%(prog)s --below MB [--status N] -- CMD...")
    parser.add_argument("--below", type=float, required=True, metavar="MB")
    parser.add_argument("--status", type=int, default=0, metavar="N")
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if not command:
        parser.error("no command after --")

    status = subprocess.run(command).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{shlex.join(command)}: exit status {status}, peak RSS {peak_mb:.1f} MB",
          file=sys.stderr)
    if status != args.status:
        print(f"expected exit status {args.status}", file=sys.stderr)
        return 1
    if not peak_mb < args.below:
        print(f"peak RSS {peak_mb:.1f} MB is not below {args.below:g} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
