"""Host-speed probe: a fixed pure-Python workload timed between samples.

On a shared host the speed a process gets changes by up to 2x within
seconds and stays changed for minutes (neighbours on the same cores).
Wall time of one sample then says as much about the host as about the
program.  ``run.py`` therefore times this probe right before and right
after every timed region and reports each sample scaled to a reference
host speed: a sample's time is multiplied by ``REFERENCE_S / probe``
(rates divided by it), where ``probe`` is the mean of the two
neighbouring probe times.

The probe imitates the program's hot mix without calling it: it parses
a fixed XML document into small objects with string methods, then
walks the tree into dicts and sorts.  It lives here, not in ``src/``,
so a change to the program never changes the probe and the scaled
numbers move exactly as the program's own cost moves.  Collection is
off while it runs (it makes no cycles), so the program's heap size does
not leak into the probe's time.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Dict, List, Tuple

#: Probe time (seconds) that scaled samples are expressed against: the
#: probe's time on an unloaded 2-vCPU x86-64 VM with Python 3.11.
REFERENCE_S = 0.07

#: Parse-and-aggregate rounds per probe.
ROUNDS = 20

#: Photons in the probe document.
PHOTONS = 400


class _Node:
    __slots__ = ("tag", "attrs", "children", "text")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.attrs: Dict[str, str] = {}
        self.children: List["_Node"] = []
        self.text = ""


def _document(count: int) -> str:
    parts = [
        f"<photon id='{i}'><en>{(i * 7919) % 1000 / 10}</en>"
        f"<ra>{(i * 104729) % 3600 / 10}</ra><det_time>{i * 0.01:.2f}</det_time></photon>"
        for i in range(count)
    ]
    return "<photons>" + "".join(parts) + "</photons>"


_DOCUMENT = _document(PHOTONS)


def _parse(text: str) -> _Node:
    root = _Node("")
    stack = [root]
    position = 0
    while True:
        start = text.find("<", position)
        if start < 0:
            return root
        if start > position:
            stack[-1].text += text[position:start]
        end = text.find(">", start)
        tag = text[start + 1:end]
        if tag.startswith("/"):
            stack.pop()
        else:
            name, _, rest = tag.partition(" ")
            node = _Node(name)
            if rest:
                key, _, value = rest.partition("=")
                node.attrs[key] = value.strip("'")
            stack[-1].children.append(node)
            stack.append(node)
        position = end + 1


def _round() -> List[Tuple[int, List[float]]]:
    totals: Dict[int, List[float]] = {}
    for photon in _parse(_DOCUMENT).children[0].children:
        values = {child.tag: float(child.text) for child in photon.children}
        bucket = totals.setdefault(int(values["ra"] // 30), [0.0, 0.0])
        bucket[0] += 1
        bucket[1] += values["en"]
    return sorted(totals.items())


#: What one round must return; a probe that skipped its work would not.
_EXPECTED = _round()


def probe() -> float:
    """Seconds for ``ROUNDS`` rounds of the fixed workload."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(ROUNDS):
            result = _round()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise RuntimeError("host-speed probe computed a wrong result")
    return elapsed
