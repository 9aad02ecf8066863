"""The suite's one hypothesis profile: the same examples on every run, with no
saved database and no per-example deadline. Tests set only max_examples."""

from hypothesis import settings

settings.register_profile("matkit", deadline=None, derandomize=True, database=None)
settings.load_profile("matkit")
