"""A pytest plugin that runs the suite with the engine's pool at four
threads, whatever the CPU count: every kernel cuts its parts by bytes
alone, so every result, the bitwise ones included, must be the same.

    PYTHONPATH=src:tests python -m pytest -p four_threads
"""

from maqd import parallel

parallel.THREADS = 4
