"""Shared mutable module state (inferred as ``mutates-shared-state``)."""

CACHE = {}


def remember(key, value):
    CACHE[key] = value
    return value
