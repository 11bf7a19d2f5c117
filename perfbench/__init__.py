"""The repository benchmark: whole fabric cells and a whole sweep,
timed end to end, with a traced run that splits the time by layer.
Entry point: ``python3 perfbench/run.py`` (see its docstring)."""
