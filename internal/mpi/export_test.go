package mpi

// AppendProgram builds the n-rank program that build describes through
// the appending reference emitter (appendProgram).
func AppendProgram(app string, n int, build func(*Builder)) (*Program, error) {
	return appendProgram(app, n, build)
}

// Composition returns the rank count and the build function of the random
// Builder composition that choices describe, drawn as composeProgram draws
// it. Every call of the build function composes the same program.
func Composition(choices []byte) (int, func(*Builder)) {
	c := &byteChooser{b: choices}
	n := composeRanks[c.Intn(len(composeRanks))]
	rest := c.b
	return n, func(b *Builder) { composeOn(b, &byteChooser{b: rest}) }
}
