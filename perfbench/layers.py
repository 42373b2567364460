"""Host-time attribution to the simulator's layers.

The layers are the ``repro`` packages. :class:`LayerTracer` times calls
into them from the benchmark's side, without touching their code:

- every ``Process._resume`` is charged to the package of the generator
  it resumes (the innermost one of a ``yield from`` chain), and every
  ``Process`` built is counted the same way;
- the LZ4 codec, as the datapath imports it
  (``repro.net.message.lz4_compress``/``lz4_decompress``),
  ``HotBlockCache.lookup/offer/invalidate`` and
  ``BandwidthServer.transfer/_book`` are timed as leaves: their time
  counts toward their own layer and is subtracted from the enclosing
  resume. (Every transfer is a synchronous call from a ``net`` or
  ``hostmodel`` generator; without the bandwidth leaves its cost would
  be charged to the caller);
- ``sim.kernel`` gets the rest of the traced interval: dispatch, event
  construction and callbacks that are not processes (resource grants,
  the dispatch of fast-path bandwidth completions).

So the layers' self times sum to the traced total by construction.
:func:`profile_layers` folds a cProfile of the same run into the same
layers, as an independent cross-check of the ranking.
"""

from __future__ import annotations

import pstats
import time
import types
import typing
from pathlib import Path

import repro.net.message as message_module
from repro.cache.hotblock import HotBlockCache
from repro.sim.bandwidth import BandwidthServer
from repro.sim.process import Process

LAYERS = (
    "sim.kernel",
    "sim.bandwidth",
    "net",
    "hostmodel",
    "core",
    "middletier",
    "storage",
    "cache",
    "compression",
    "workloads",
)

#: Layers whose generator processes the workloads run; they report
#: ``.resumes`` and ``.processes``. (The kernel, cache and compression
#: own none.)
PROCESS_LAYERS = (
    "sim.bandwidth",
    "net",
    "hostmodel",
    "core",
    "middletier",
    "storage",
    "workloads",
)

_BENCH_DIR = str(Path(__file__).resolve().parent)
_BANDWIDTH_MODULES = ("bandwidth", "waterfill")


def layer_of(filename: str) -> str:
    """The layer a source file belongs to.

    The benchmark's own closed-loop client plays the part of
    ``repro.workloads``' drivers, so its files count as ``workloads``.
    Code outside every layer (the standard library, other ``repro``
    packages) is ``other``.
    """
    if filename.startswith(_BENCH_DIR):
        return "workloads"
    parts = Path(filename).parts
    if "repro" not in parts:
        return "other"
    index = len(parts) - 1 - parts[::-1].index("repro")
    inner = parts[index + 1 : -1]
    if not inner:
        return "other"
    if inner[0] == "sim":
        return "sim.bandwidth" if Path(filename).stem in _BANDWIDTH_MODULES else "sim.kernel"
    return inner[0] if inner[0] in LAYERS else "other"


class LayerTracer:
    """Per-layer self time, resume and process counts, and leaf calls.

    The wrappers sit on the simulator's hottest paths, so they bind what
    they touch to locals and keep every count in a dict or list that
    :meth:`reset` clears in place.
    """

    def __init__(self) -> None:
        buckets = LAYERS + ("other",)
        self.self_s = dict.fromkeys(buckets, 0.0)
        self.resumes = dict.fromkeys(buckets, 0)
        self.processes = dict.fromkeys(buckets, 0)
        #: op -> [calls, uncompressed bytes, seconds]
        self.codec = {"compress": [0, 0, 0.0], "decompress": [0, 0, 0.0]}
        #: ``HotBlockCache`` lookup/offer/invalidate calls, in a one-item list.
        self.cache_calls = [0]
        #: Seconds of timed children of each open timed call.
        self._stack: list[float] = []
        self._layer_by_code: dict[types.CodeType, str] = {}
        self._undo: list[tuple[typing.Any, str, typing.Any]] = []

    def reset(self) -> None:
        """Zero every count (called at the start of the measured phase)."""
        for counts in (self.self_s, self.resumes, self.processes):
            for layer in counts:
                counts[layer] = 0
        for entry in self.codec.values():
            entry[:] = [0, 0, 0.0]
        self.cache_calls[0] = 0

    def _layer(self, code: types.CodeType) -> str:
        layer = self._layer_by_code.get(code)
        if layer is None:
            layer = self._layer_by_code[code] = layer_of(code.co_filename)
        return layer

    def _timed(self, layer: str, original: typing.Callable) -> typing.Callable:
        """`original`, wrapped to charge its time less timed children to `layer`."""
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter

        def timed(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return timed

    # -- installation ------------------------------------------------------

    def _patch(self, owner: typing.Any, name: str, replacement: typing.Any) -> typing.Any:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, replacement)
        return original

    def install(self) -> None:
        """Wrap the layer entry points; call before the first Process is built."""
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter
        resumes, processes = self.resumes, self.processes
        layer_by_code, layer_for = self._layer_by_code, self._layer
        generator_type = types.GeneratorType

        def resume(process: Process, event: typing.Any) -> None:
            generator = process._generator
            inner = generator.gi_yieldfrom
            while type(inner) is generator_type:
                generator, inner = inner, inner.gi_yieldfrom
            code = generator.gi_code
            layer = layer_by_code.get(code) or layer_for(code)
            resumes[layer] += 1
            stack.append(0.0)
            start = clock()
            try:
                original_resume(process, event)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        def init(process: Process, sim: typing.Any, generator: typing.Any, **kw: typing.Any):
            original_init(process, sim, generator, **kw)
            code = generator.gi_code
            processes[layer_by_code.get(code) or layer_for(code)] += 1

        original_resume = self._patch(Process, "_resume", resume)
        original_init = self._patch(Process, "__init__", init)
        self._patch_codec()
        cache_calls = self.cache_calls
        for name in ("lookup", "offer", "invalidate"):
            timed = self._timed("cache", getattr(HotBlockCache, name))

            def counted(*args: typing.Any, _timed: typing.Callable = timed) -> typing.Any:
                cache_calls[0] += 1
                return _timed(*args)

            self._patch(HotBlockCache, name, counted)
        for name in ("transfer", "_book"):
            timed = self._timed("sim.bandwidth", getattr(BandwidthServer, name))
            self._patch(BandwidthServer, name, timed)

    def _patch_codec(self) -> None:
        """Time the codec, and count its calls and uncompressed bytes."""
        clock = time.perf_counter
        compress_entry, decompress_entry = self.codec["compress"], self.codec["decompress"]
        timed_compress = self._timed("compression", message_module.lz4_compress)
        timed_decompress = self._timed("compression", message_module.lz4_decompress)

        def compress(data: bytes) -> bytes:
            start = clock()
            blob = timed_compress(data)
            compress_entry[0] += 1
            compress_entry[1] += len(data)
            compress_entry[2] += clock() - start
            return blob

        def decompress(blob: bytes) -> bytes:
            start = clock()
            data = timed_decompress(blob)
            decompress_entry[0] += 1
            decompress_entry[1] += len(data)
            decompress_entry[2] += clock() - start
            return data

        self._patch(message_module, "lz4_compress", compress)
        self._patch(message_module, "lz4_decompress", decompress)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def layer_seconds(self, total_s: float) -> dict[str, float]:
        """Self seconds per layer; ``sim.kernel`` absorbs the remainder."""
        if self.self_s["other"] or self.resumes["other"]:
            raise RuntimeError("host time was charged outside every layer")
        seconds = {layer: self.self_s[layer] for layer in LAYERS}
        seconds["sim.kernel"] = total_s - sum(
            seconds[layer] for layer in LAYERS if layer != "sim.kernel"
        )
        return seconds


def profile_layers(stats: pstats.Stats) -> dict[str, float]:
    """Fold a cProfile's own times into layers by source file.

    Built-in functions have no file; their time goes to the layers of
    their callers, in the proportion cProfile recorded per caller.
    """
    seconds = dict.fromkeys(LAYERS + ("other",), 0.0)
    for (filename, _line, _name), entry in stats.stats.items():  # type: ignore[attr-defined]
        _cc, _nc, own, _cum, callers = entry
        if filename != "~":
            seconds[layer_of(filename)] += own
            continue
        for (caller_file, _l, _n), caller_entry in callers.items():
            seconds[layer_of(caller_file)] += caller_entry[2]
    return seconds
