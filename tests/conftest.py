import os
import sys
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, os.path.dirname(__file__))

# property tests draw the same examples on every run and keep no example
# database
settings.register_profile("chernoff", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("chernoff")

# even without a database Hypothesis caches the constants it finds in the
# source under its home directory; give it one outside the tree, removed
# when the session exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
