#!/usr/bin/env python3
"""Profiles a short program run with hibprof and checks the profile names it.

    profile_test.py <libhibprof.so> <profile file> <program> [args...]

Runs the program under LD_PRELOAD, symbolises the samples, and passes when
enough samples were taken and a hib:: function is among the ten hottest by
self samples: the sampler, the address mapping and addr2line all worked.
"""

import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hibprof  # noqa: E402

MIN_SAMPLES = 100


def main():
    lib, profile, program = sys.argv[1:4]
    if os.path.exists(profile):
        os.remove(profile)
    env = dict(os.environ, LD_PRELOAD=os.path.abspath(lib), HIBPROF_OUT=profile)
    subprocess.run([program] + sys.argv[4:], env=env, check=True, stdout=subprocess.DEVNULL)
    maps, samples, _ = hibprof.read_profile(profile)
    stacks = hibprof.symbolise(maps, samples)
    top = hibprof.flat_table(stacks)[:10]
    for name, self_samples, _ in top:
        print("%6d  %s" % (self_samples, hibprof.short(name)))
    if len(stacks) < MIN_SAMPLES:
        sys.exit("FAIL: %d samples, expected at least %d" % (len(stacks), MIN_SAMPLES))
    if not any(name.startswith("hib::") for name, _, _ in top):
        sys.exit("FAIL: no hib:: function among the ten hottest")
    print("OK: %d samples" % len(stacks))


if __name__ == "__main__":
    main()
