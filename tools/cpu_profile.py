#!/usr/bin/env python3
"""Symbolizes a tools/cpu_sampler.c dump and prints each thread's top
functions by self share.

    python3 tools/cpu_profile.py cpu_samples.<pid>

A sample's PC is mapped through the dump's copy of /proc/<pid>/maps to a
file offset, then through that ELF file's PT_LOAD headers to a link-time
address, which `addr2line -f -C` turns into a function name (the innermost
inlined function when the file has DWARF). Addresses addr2line cannot name
(stripped libraries such as libc) fall back to the nearest preceding
symbol from `nm` / `nm -D`, which can name an unexported function after
the exported one before it. Shares are of the thread's own samples; the
thread header gives its share of all samples. Threads are listed by sample
count, busiest first: the eight busiest, fifteen functions each.
"""

import argparse
import bisect
import collections
import struct
import subprocess
import sys

TOP_FUNCTIONS = 15  # listed per thread
TOP_THREADS = 8  # listed, busiest first


def parse_dump(path):
    header = ""
    maps = []  # (start, end, offset, path) of executable mappings
    samples = []  # (tid, pc)
    with open(path) as dump:
        for line in dump:
            if line.startswith("s "):
                _, tid, pc = line.split()
                samples.append((int(tid), int(pc, 16)))
            elif line.startswith("map "):
                fields = line[4:].split(None, 5)
                if len(fields) < 5 or "x" not in fields[1]:
                    continue
                start, end = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5].strip() if len(fields) == 6 else "[anon]"
                maps.append((start, end, int(fields[2], 16), name))
            elif line.startswith("#"):
                header = line.strip()
    maps.sort()
    return header, maps, samples


def load_segments(path):
    """PT_LOAD (offset, filesz, vaddr) triples of a 64-bit ELF file."""
    try:
        with open(path, "rb") as elf:
            ident = elf.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return []
            endian = "<" if ident[5] == 1 else ">"
            phoff, = struct.unpack_from(endian + "Q", ident, 32)
            phentsize, phnum = struct.unpack_from(endian + "HH", ident, 54)
            elf.seek(phoff)
            table = elf.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            endian + "IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_filesz, p_vaddr))
    return segments


def link_address(segments, file_offset):
    for offset, size, vaddr in segments:
        if offset <= file_offset < offset + size:
            return file_offset - offset + vaddr
    return file_offset


def nm_symbols(path):
    """Sorted (address, name) of defined function symbols, for fallback."""
    symbols = {}
    for flags in ([], ["-D"]):
        try:
            out = subprocess.run(
                ["nm", "-C", "--defined-only"] + flags + [path],
                capture_output=True, text=True).stdout
        except OSError:
            return []
        for line in out.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "tTwWiI":
                symbols.setdefault(int(parts[0], 16), parts[2])
    return sorted(symbols.items())


def symbolize(path, addresses):
    """Maps each link-time address in `path` to a function name."""
    names = {}
    ordered = sorted(addresses)
    try:
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", path],
            input="".join(f"{a:x}\n" for a in ordered),
            capture_output=True, text=True).stdout.splitlines()
    except OSError:
        out = []
    if len(out) == 2 * len(ordered):
        for i, address in enumerate(ordered):
            if out[2 * i] != "??":
                names[address] = out[2 * i]
    missing = [a for a in ordered if a not in names]
    if missing:
        symbols = nm_symbols(path)
        starts = [address for address, _ in symbols]
        for address in missing:
            i = bisect.bisect_right(starts, address) - 1
            names[address] = symbols[i][1] if i >= 0 else f"?? {address:#x}"
    return names


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dump")
    args = parser.parse_args(argv)

    header, maps, samples = parse_dump(args.dump)
    starts = [m[0] for m in maps]
    segments = {}
    wanted = collections.defaultdict(set)  # path -> link addresses
    located = []  # (tid, path, link address) per sample
    for tid, pc in samples:
        i = bisect.bisect_right(starts, pc) - 1
        if pc == 0 or i < 0 or pc >= maps[i][1]:
            located.append((tid, "[unmapped]", 0))
            continue
        start, _, offset, path = maps[i]
        if path.startswith("["):  # [vdso], [anon]: no file to read
            located.append((tid, path, 0))
            continue
        if path not in segments:
            segments[path] = load_segments(path)
        address = link_address(segments[path], pc - start + offset)
        wanted[path].add(address)
        located.append((tid, path, address))

    names = {path: symbolize(path, addresses)
             for path, addresses in wanted.items()}
    per_thread = collections.defaultdict(collections.Counter)
    for tid, path, address in located:
        name = names[path][address] if path in names else path
        per_thread[tid][name] += 1

    total = len(samples)
    print(header)
    if total == 0:
        print("no samples")
        return 0
    busiest = sorted(per_thread.items(),
                     key=lambda item: -sum(item[1].values()))
    for tid, counts in busiest[:TOP_THREADS]:
        count = sum(counts.values())
        print(f"\nthread {tid}: {count} samples, {100.0 * count / total:.1f}% "
              "of all")
        for name, hits in counts.most_common(TOP_FUNCTIONS):
            print(f"  {100.0 * hits / count:5.1f}%  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
