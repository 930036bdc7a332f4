package core

// CommandRegistry is what Engine.Commands held while macros could run
// %EXEC commands. Nothing registered one in any binary, so %EXEC is a
// parse error now and the registry holds nothing. The type, its
// constructor and the ignored Engine.Commands field stay only because
// benchmark/stack.go and benchmark/traced.go still set them; ROADMAP
// item 3, which edits benchmark/, deletes all three.
type CommandRegistry struct{}

// NewCommandRegistry returns an empty registry. It stays only for
// benchmark/stack.go and benchmark/traced.go until ROADMAP item 3.
func NewCommandRegistry() *CommandRegistry { return &CommandRegistry{} }
