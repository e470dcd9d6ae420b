"""The Earley chart kernel (`gramdec.engine.kernel`) and its table format."""
