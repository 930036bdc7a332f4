package cgi

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// ErrTimeout marks a CGI subprocess that exceeded its invocation
// timeout; the gateway maps it to 504 rather than a generic 502.
var ErrTimeout = errors.New("cgi: subprocess timed out")

// Handler is a CGI application that can be invoked in-process. The
// in-process harness preserves the CGI contract (a Request in, a CGI
// response — headers, blank line, body — out) while skipping process
// creation; the gateway uses it by default and BenchmarkE4_Figure4_CGIFlows
// compares it against the true subprocess path.
type Handler interface {
	ServeCGI(req *Request) (*Response, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req *Request) (*Response, error)

// ServeCGI calls f.
func (f HandlerFunc) ServeCGI(req *Request) (*Response, error) { return f(req) }

// InvokeProcess runs a CGI executable as a real subprocess: environment
// per Request.Env, POST body on stdin, response parsed from stdout. extra
// appends additional environment variables (the deployment-specific
// configuration a server's cgi-bin setup would carry, e.g. the macro
// directory). This is the per-request fork/exec cost of Figure 4.
func InvokeProcess(program string, args []string, req *Request, extra []string, timeout time.Duration) (*Response, error) {
	cmd := exec.Command(program, args...)
	cmd.Env = append(append(os.Environ(), req.Env()...), extra...)
	if strings.ToUpper(req.Method) == "POST" {
		cmd.Stdin = strings.NewReader(req.Body)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr

	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cgi: starting %s: %w", program, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var werr error
	if timeout > 0 {
		select {
		case werr = <-done:
		case <-time.After(timeout):
			_ = cmd.Process.Kill()
			<-done
			return nil, fmt.Errorf("%w: %s after %v", ErrTimeout, program, timeout)
		}
	} else {
		werr = <-done
	}
	if werr != nil {
		return nil, fmt.Errorf("cgi: %s failed: %w (stderr: %s)",
			program, werr, strings.TrimSpace(stderr.String()))
	}
	resp, err := ParseResponse(stdout.String())
	if err != nil {
		return nil, fmt.Errorf("cgi: %s produced malformed output: %w", program, err)
	}
	return resp, nil
}
