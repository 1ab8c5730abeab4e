package main

import "testing"

// TestExample runs the example end to end in-process; any failure
// exits through log.Fatal.
func TestExample(t *testing.T) { main() }
