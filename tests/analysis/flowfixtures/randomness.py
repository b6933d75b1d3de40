"""A module-level draw and a draw from a stream parameter: both
``consumes-rng-stream``."""

import random


def bad_draw():
    return random.random()


def good_draw(rng):
    return rng.uniform(0.0, 1.0)
