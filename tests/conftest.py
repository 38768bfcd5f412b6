import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


def random_states(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random but valid state rows (k+1, 7): the sufferer at rest at the
    origin, then k neighbours scattered around and above it, each drawing
    N, E, D and then its velocity."""
    states = np.zeros((k + 1, 7))
    for row in states[1:]:
        row[:3] = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2), -rng.uniform(0.15, 1.5)
        row[3:6] = rng.uniform(-0.8, 0.8, size=3)
    return states


def sealed_digest(metadata, blob: bytes) -> str:
    """The ``sha256`` a dataset sidecar holds for ``metadata`` and the CSV
    bytes ``blob``: of the metadata as sorted-key compact JSON, one newline,
    then the CSV."""
    head = json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(head + b"\n" + blob).hexdigest()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


DELETE = object()  # a JSON swap that deletes the key instead of replacing its value

# a float, a bool, an int beyond the float range, a nested list, a string,
# null, and no value at all
JSON_SWAPS = (1.5, True, 10**400, [[0, [1.5]], "x"], "x", None, DELETE)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=4), values, max_size=3),
    max_leaves=6,
)


def json_swap_fuzz(test):
    """Derandomized hypothesis over ``test``'s last argument, a JSON value:
    each of ``JSON_SWAPS``, then generated values of any JSON type."""
    test = given(_json_values)(test)
    for value in reversed(JSON_SWAPS):
        test = example(value)(test)
    return settings(max_examples=25, deadline=None, derandomize=True, database=None)(test)


def json_swaps(doc, value):
    """``doc`` with ``value`` at one key path (a key or a list index, at any
    depth), or that key deleted for ``DELETE``: a (path, copy) pair for every
    key path of ``doc``."""
    paths, stack = [], [((), doc)]
    while stack:
        prefix, node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            paths.append(prefix + (key,))
            stack.append((prefix + (key,), child))
    for path in paths:
        swapped = copy.deepcopy(doc)
        parent = swapped
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        yield path, swapped
