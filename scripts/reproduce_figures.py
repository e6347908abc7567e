#!/usr/bin/env python3
"""Regenerate the two magnetization sweep datasets and print the transition
points.

Writes pd_qvd_magnetization.csv and chicken_qvstraight_magnetization.csv
(gamma, beta, J, h, m; betas 0.5/1/2/5) into --outdir; the sign change of m
marks where the majority strategy flips.
"""

import argparse
import os
import sys
import warnings

from qgames.cli import main as qgames_main


def run(argv):
    code = qgames_main(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="data", help="output directory (default: data/)")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    pd_csv = os.path.join(args.outdir, "pd_qvd_magnetization.csv")
    run(["curve", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1",
         "--block", "QvD", "--output", pd_csv])
    print(f"wrote {pd_csv}")
    run(["transition", "--game", "pd", "--r", "3", "--t", "5", "--s", "0", "--p", "1"])

    ch_csv = os.path.join(args.outdir, "chicken_qvstraight_magnetization.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # r == s relaxes the strict ordering
        run(["curve", "--game", "chicken", "--r", "4", "--s", "4",
             "--block", "QvStraight", "--output", ch_csv])
        print(f"wrote {ch_csv}")
        run(["transition", "--game", "chicken", "--r", "4", "--s", "4"])


if __name__ == "__main__":
    main()
