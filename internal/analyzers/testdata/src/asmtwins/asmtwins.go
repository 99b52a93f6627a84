// Package asmtwins seeds the assembly-kernel rules of the noalloc
// analyzer; its test lists kernelOK, kernelBadTwin and gone in
// AssemblyTwins.
package asmtwins // want `lists gone, which this package does not declare`

// kernelOK and its twin are what the rule wants.
func kernelOK(x []float64)

//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func kernelOKTwin(x []float64) { x[0]++ }

// kernelBadTwin's twin is under only one of the gates.
func kernelBadTwin(x []float64)

//ihtl:noalloc
func badTwin(x []float64) { x[0]++ } // want `must carry //ihtl:no(bce|escape)`

// kernelNoTwin's twin is missing.
func kernelNoTwin(x []float64) // want `has no Go twin`

// unlisted has no Go body and no entry.
func unlisted(x []float64)

//ihtl:noalloc
func calls(x []float64) {
	kernelOK(x)
	kernelBadTwin(x)
	kernelNoTwin(x)
	unlisted(x) // want `calls unlisted, which has no Go body`
}
