// Package cli holds the command-line plumbing the simulators share:
// profiling flags and comma-separated list arguments.
package cli

import (
	"flag"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// Profile registers -cpuprofile and -memprofile on the default flag set.
// Call the returned start after flag.Parse and defer the stop it returns:
// the CPU profile covers everything in between, and the heap profile is
// written at stop.
func Profile() (start func() (stop func())) {
	cpu := flag.String("cpuprofile", "", "write a CPU profile to this file")
	mem := flag.String("memprofile", "", "write a heap profile to this file on exit")
	return func() func() {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				log.Fatal(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				log.Fatal(err)
			}
			cpuFile = f
		}
		return func() {
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					log.Fatal(err)
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					log.Fatal(err)
				}
				f.Close()
			}
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
		}
	}
}

// List parses a comma-separated argument, trimming spaces around each
// element, with parse (strconv.Atoi, cluster.ParseSelection, …).
func List[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Must returns v, or exits through log.Fatal when err is set.
func Must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// Float parses one float64 for List.
func Float(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
