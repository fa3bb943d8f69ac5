// Command sensorgen dumps synthetic sensor traces as CSV for inspection and
// for feeding external tooling.
//
// Usage:
//
//	sensorgen -sensor S4 -n 100          # accelerometer walking signal
//	sensorgen -sensor S6 -n 2000 -seed 7 # ECG waveform
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iothub/internal/sensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sensorgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sensorgen", flag.ContinueOnError)
	id := fs.String("sensor", "S4", "Table I sensor ID (S1..S10)")
	n := fs.Int("n", 100, "number of samples")
	seed := fs.Int64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("n = %d, want >= 1", *n)
	}
	spec, err := sensor.Lookup(sensor.ID(*id))
	if err != nil {
		return err
	}
	src, err := sensor.DefaultSource(spec.ID, *seed)
	if err != nil {
		return err
	}
	return dump(out, spec, src, *n)
}

func dump(out io.Writer, spec sensor.Spec, src sensor.Source, n int) error {
	var buf []byte // the current sample, reused across rows
	switch spec.DataType {
	case "Int*3":
		fmt.Fprintln(out, "index,x,y,z")
		for i := 0; i < n; i++ {
			buf = src.AppendSample(buf[:0], i)
			v, err := sensor.DecodeVec3(buf)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%d,%d,%d,%d\n", i, v.X, v.Y, v.Z)
		}
	case "Int":
		fmt.Fprintln(out, "index,value")
		for i := 0; i < n; i++ {
			buf = src.AppendSample(buf[:0], i)
			v, err := sensor.DecodeI32(buf)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%d,%d\n", i, v)
		}
	case "Double":
		fmt.Fprintln(out, "index,value")
		for i := 0; i < n; i++ {
			buf = src.AppendSample(buf[:0], i)
			v, err := sensor.DecodeF64(buf)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%d,%g\n", i, v)
		}
	default:
		// Opaque payloads (signatures, frames): dump sizes only.
		fmt.Fprintln(out, "index,bytes")
		for i := 0; i < n; i++ {
			buf = src.AppendSample(buf[:0], i)
			fmt.Fprintf(out, "%d,%d\n", i, len(buf))
		}
	}
	return nil
}
