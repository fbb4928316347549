"""Reference implementations the tests compare the library against.

Nothing under ``src/`` imports these: each is the second path that a
kept kernel or evaluator routine is held to, bit for bit or within a
precision floor.
"""
