package stats

import "math"

// WelchResult is the outcome of a Welch two-sample t-test.
type WelchResult struct {
	T  float64 // test statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchT runs Welch's unequal-variance t-test on two samples; the user
// study analysis (§6.5) uses it to decide whether two notebook variants'
// ratings differ significantly. Degenerate inputs (fewer than two values,
// or two zero-variance samples) give P = 1 when the means agree within
// tolerance and P = 0 when they provably differ.
func WelchT(x, y []float64) WelchResult {
	nx, ny := float64(len(x)), float64(len(y))
	if nx < 2 || ny < 2 {
		return WelchResult{T: math.NaN(), DF: math.NaN(), P: 1}
	}
	mx, my := Mean(x), Mean(y)
	vx, vy := Variance(x), Variance(y)
	se2 := vx/nx + vy/ny
	if NearZero(se2) {
		if ApproxEqual(mx, my, Tol) {
			return WelchResult{T: 0, DF: nx + ny - 2, P: 1}
		}
		return WelchResult{T: math.Inf(sign(mx - my)), DF: nx + ny - 2, P: 0}
	}
	t := (mx - my) / math.Sqrt(se2)
	df := se2 * se2 / ((vx*vx)/(nx*nx*(nx-1)) + (vy*vy)/(ny*ny*(ny-1)))
	return WelchResult{T: t, DF: df, P: studentTTwoSided(t, df)}
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// studentTTwoSided returns P(|T| ≥ |t|) for T ~ Student-t with df degrees
// of freedom, via the regularized incomplete beta function:
//
//	p = I_{df/(df+t²)}(df/2, 1/2)
func studentTTwoSided(t, df float64) float64 {
	if math.IsNaN(t) || math.IsNaN(df) || df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	return regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// with the continued-fraction expansion (Numerical Recipes betacf),
// accurate to ~1e-10 for the parameter ranges a t-test produces.
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
