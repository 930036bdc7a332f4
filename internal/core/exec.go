package core

import (
	"bytes"
	"strings"
	"sync"
)

// Command is an in-process implementation of a %EXEC command. It receives
// the substituted argument list (args[0] is the command name) and writes
// any output to stdout. The return value is the command's exit code;
// zero means success (the %EXEC variable then evaluates to null).
type Command func(args []string, stdout *bytes.Buffer) int

// CommandRegistry resolves and runs %EXEC command strings. Only
// registered in-process commands run — deterministic and safe for a
// public gateway; the paper's REXX/Perl integrations, which ran operating
// system programs, are in-process commands here.
type CommandRegistry struct {
	mu   sync.RWMutex
	cmds map[string]Command
}

// NewCommandRegistry returns an empty registry.
func NewCommandRegistry() *CommandRegistry {
	return &CommandRegistry{cmds: map[string]Command{}}
}

// RegisterCommand makes an in-process command available to %EXEC.
func (cr *CommandRegistry) RegisterCommand(name string, fn Command) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.cmds[name] = fn
}

// Run executes a substituted command line, returning its exit code and
// captured standard output. Unknown commands return exit code 127,
// like a shell.
func (cr *CommandRegistry) Run(cmdline string) (int, string) {
	args := splitFields(cmdline)
	if len(args) == 0 {
		return 127, ""
	}
	cr.mu.RLock()
	fn, ok := cr.cmds[args[0]]
	cr.mu.RUnlock()
	if !ok {
		return 127, ""
	}
	var buf bytes.Buffer
	code := fn(args, &buf)
	return code, buf.String()
}

// splitFields splits a command line on spaces, honouring double-quoted
// arguments.
func splitFields(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
		case !inQuote && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}
