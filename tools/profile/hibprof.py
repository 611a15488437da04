#!/usr/bin/env python3
"""Symbolises a hibprof sample file into flat and caller tables.

    python3 tools/profile/hibprof.py prof.txt [--top 25] [--callers 5]

Every sampled address is mapped through the run's /proc/self/maps to its ELF
file and link-time address, then named with `addr2line -f -C` (one batch per
file).  Return addresses are looked up one byte back, so a call is charged to
the function that made it.  The flat table gives, per function, the share of
samples executing in it (self) and the share with it anywhere on the
recorded stack (total, counted once per sample).  The caller table lists who
called each of the hottest functions.
"""

import argparse
import bisect
import collections
import struct
import subprocess
import sys

PT_LOAD = 1


def read_profile(path):
    """Returns (executable mappings, samples, CPU seconds of the run)."""
    maps, samples, cpu_s = [], [], 0.0
    with open(path) as f:
        for line in f:
            if line.startswith("s"):
                samples.append([int(a, 16) for a in line.split()[1:]])
            elif line.startswith("map "):
                fields = line[4:].split(maxsplit=5)
                if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                    continue
                lo, hi = (int(a, 16) for a in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))
            elif line.startswith("cpu_s "):
                cpu_s = float(line.split()[1])
    maps.sort()
    return maps, samples, cpu_s


def load_segments(path):
    """(file offset, vaddr, size) of each PT_LOAD segment of an ELF64 file."""
    try:
        with open(path, "rb") as f:
            header = f.read(64)
            if header[:4] != b"\x7fELF" or header[4] != 2:
                return []
            phoff = struct.unpack_from("<Q", header, 32)[0]
            phentsize, phnum = struct.unpack_from("<HH", header, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if p_type == PT_LOAD:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


class Symboliser:
    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.segments = {}

    def locate(self, addr):
        """(ELF path, link-time address) of a runtime address, or None."""
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0 or addr >= self.maps[i][1]:
            return None
        lo, _, offset, path = self.maps[i]
        if path not in self.segments:
            self.segments[path] = load_segments(path)
        file_offset = addr - lo + offset
        for p_offset, p_vaddr, p_filesz in self.segments[path]:
            if p_offset <= file_offset < p_offset + p_filesz:
                return path, file_offset - p_offset + p_vaddr
        return None

    def names(self, addrs):
        """Maps each runtime address to a function name."""
        by_file = collections.defaultdict(dict)
        out = {}
        for addr in addrs:
            where = self.locate(addr)
            if where is None:
                out[addr] = "[unknown]"
            else:
                by_file[where[0]][addr] = where[1]
        for path, located in by_file.items():
            ordered = list(located.items())
            query = "\n".join("%x" % link for _, link in ordered) + "\n"
            result = subprocess.run(["addr2line", "-f", "-C", "-e", path], input=query,
                                    capture_output=True, text=True)
            lines = result.stdout.splitlines()
            base = path.rsplit("/", 1)[-1]
            for i, (addr, _) in enumerate(ordered):
                name = lines[2 * i] if 2 * i < len(lines) else "??"
                out[addr] = name if name != "??" else "[%s]" % base
        return out


def symbolise(maps, samples):
    """Each sample as a list of function names, innermost first."""
    wanted = set()
    for stack in samples:
        wanted.add(stack[0])
        wanted.update(a - 1 for a in stack[1:])
    names = Symboliser(maps).names(wanted)
    return [[names[stack[0]]] + [names[a - 1] for a in stack[1:]] for stack in samples if stack]


def flat_table(stacks):
    """[(function, self samples, total samples)], hottest self first."""
    self_count = collections.Counter(stack[0] for stack in stacks)
    total_count = collections.Counter()
    for stack in stacks:
        total_count.update(set(stack))
    rows = [(name, self_count[name], total_count[name]) for name in total_count]
    rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
    return rows


def caller_table(stacks, function):
    """Counter of the functions that called `function` in its self samples."""
    return collections.Counter(stack[1] if len(stack) > 1 else "[root]"
                               for stack in stacks if stack[0] == function)


def short(name, width=90):
    return name if len(name) <= width else name[:width - 3] + "..."


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile", help="the file HIBPROF_OUT named")
    parser.add_argument("--top", type=int, default=25, help="rows of the flat table")
    parser.add_argument("--callers", type=int, default=5,
                        help="hottest functions to list callers for")
    args = parser.parse_args()
    maps, samples, cpu_s = read_profile(args.profile)
    stacks = symbolise(maps, samples)
    if not stacks:
        sys.exit("hibprof: no samples in %s" % args.profile)
    n = len(stacks)
    print("%d samples over %.2f s of CPU (%.2f ms each)" % (n, cpu_s, 1e3 * cpu_s / n))
    print("%7s %7s  %s" % ("self", "total", "function"))
    rows = flat_table(stacks)
    for name, self_samples, total in rows[:args.top]:
        print("%6.1f%% %6.1f%%  %s" % (100.0 * self_samples / n, 100.0 * total / n, short(name)))
    for name, self_samples, _ in rows[:args.callers]:
        print("\ncallers of %s (%d samples)" % (short(name), self_samples))
        for caller, count in caller_table(stacks, name).most_common(5):
            print("%6.1f%%  %s" % (100.0 * count / self_samples, short(caller)))


if __name__ == "__main__":
    main()
