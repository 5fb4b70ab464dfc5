"""The repository benchmark: see NOTES.md and run.py."""
