// Package prof backs the commands' -cpuprofile and -memprofile flags with
// runtime/pprof. Profiling writes only to the named files, so a command's
// stdout is the same with and without it.
package prof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates the profile files that are named, so an unwritable path
// fails before any work, and begins the CPU profile. The returned stop
// function ends the CPU profile and writes the heap profile, after a
// collection so that it reflects the live heap at exit.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("memory profile: %w", err)
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if mem != nil {
			runtime.GC()
			if err := errors.Join(pprof.WriteHeapProfile(mem), mem.Close()); err != nil {
				errs = append(errs, fmt.Errorf("memory profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}
