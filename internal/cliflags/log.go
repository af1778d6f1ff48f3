package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Verbosity registers the shared -v and -quiet flags: -v adds per-run
// debug detail, -quiet drops informational chatter. Errors always print.
func Verbosity(fs *flag.FlagSet) (verbose, quiet *bool) {
	verbose = fs.Bool("v", false, "verbose: log every simulation run")
	quiet = fs.Bool("quiet", false, "suppress informational stderr output (errors still print)")
	return verbose, quiet
}

// Logger is the leveled stderr logger shared by every dynamo command, so
// -v and -quiet mean the same thing everywhere. Three levels:
//
//	DebugWriter — per-run detail, only with -v
//	Infof       — progress, timing, summaries, unless -quiet
//	Errorf      — always
//
// Every logging method appends a newline. Tables and results go to stdout
// and are never routed through the logger.
type Logger struct {
	out     io.Writer
	verbose bool
	quiet   bool
}

// NewLogger builds a stderr logger; -v wins over -quiet when both are set.
func NewLogger(verbose, quiet bool) *Logger {
	return &Logger{out: os.Stderr, verbose: verbose, quiet: quiet && !verbose}
}

// Infof logs progress and summaries, unless -quiet.
func (l *Logger) Infof(format string, args ...any) {
	if l.quiet {
		return
	}
	fmt.Fprintf(l.out, format+"\n", args...)
}

// Errorf logs unconditionally.
func (l *Logger) Errorf(format string, args ...any) {
	fmt.Fprintf(l.out, format+"\n", args...)
}

// Fatal logs v unconditionally and exits 1.
func (l *Logger) Fatal(v any) {
	fmt.Fprintln(l.out, v)
	os.Exit(1)
}

// Fatalf logs unconditionally and exits 1.
func (l *Logger) Fatalf(format string, args ...any) {
	l.Errorf(format, args...)
	os.Exit(1)
}

// DebugWriter returns the raw stderr stream when -v is set and nil
// otherwise — the shape runner.Options.Log and experiments.Options.Log
// expect for their per-job progress lines.
func (l *Logger) DebugWriter() io.Writer {
	if l.verbose {
		return l.out
	}
	return nil
}

// InfoWriter returns the stream Infof writes to (io.Discard under
// -quiet), for multi-write messages built up with fmt.Fprintf.
func (l *Logger) InfoWriter() io.Writer {
	if l.quiet {
		return io.Discard
	}
	return l.out
}

// Serve registers -serve: the telemetry HTTP listen address.
func Serve(fs *flag.FlagSet) *string {
	return fs.String("serve", "", `serve sweep telemetry over HTTP on host:port (":0" picks a free port): /metrics, /progress, /jobs`)
}
