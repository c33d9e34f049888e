"""Learned classifier-free guidance weights for diffusion samplers.

The package fits a guidance weight function omega(s, t, c) by asking the
guided sampler to be consistent with itself: pushing noisier points one
transition step toward the data should look, in distribution, like noising
the data directly. Everything runs on a 2D Gaussian-mixture test bed with
closed-form denoisers, so claims are checkable against exact math.

Callers import the submodules; the package itself exports nothing.
"""
