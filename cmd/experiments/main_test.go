package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"neutrality/internal/figures"
)

// run executes the command in-process with a fresh flag set and the
// given arguments and returns what it wrote to stdout.
func run(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	savedArgs, savedStdout, savedFlags := os.Args, os.Stdout, flag.CommandLine
	os.Args, os.Stdout = append([]string{"experiments"}, args...), out
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
	defer func() { os.Args, os.Stdout, flag.CommandLine = savedArgs, savedStdout, savedFlags }()
	main()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTablesAndFig8: the tables and Figure 8 print byte-identically for
// one and two workers, with one agreement line per Table 2 set and the
// Figure 8 text the figures package renders for the same seed.
func TestTablesAndFig8(t *testing.T) {
	one := run(t, "-only", "tables,fig8", "-workers", "1")
	two := run(t, "-only", "tables,fig8", "-workers", "2")
	if one != two {
		t.Fatalf("stdout differs between -workers 1 and -workers 2:\n%s\nvs\n%s", one, two)
	}
	if n := strings.Count(one, "agreement with paper: "); n != 9 {
		t.Fatalf("%d agreement lines, want 9:\n%s", n, one)
	}
	results, err := figures.Fig8(figures.Exec{}, figures.Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fig8 strings.Builder
	for _, r := range results {
		fig8.WriteString(r.String() + "\n")
	}
	if !strings.Contains(one, fig8.String()) {
		t.Fatalf("stdout lacks the Figure 8 text:\n%s\nwant:\n%s", one, fig8.String())
	}
}
