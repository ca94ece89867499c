"""Analysis and reporting: turn emulation stats into the paper's artifacts."""
