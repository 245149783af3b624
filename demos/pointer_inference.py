"""From Born statistics to a macroscopic pointer you can trust.

Three stages, one story: (1) a unitary device maps the state onto its
measurement basis and outcome tallies follow the squared overlaps; (2) an
ideal amplifier copies the detection cell into a pointer variable, and
Bayesian readout of the pointer recovers the cell with zero error; (3) a
noisy amplifier corrupts the pointer with probability epsilon, and the
posterior still pins the cell far better than a naive reading whenever
the state gives the prior something to work with.

Writes born.csv (probability vs tally) and errors.csv (epsilon sweep).
"""

import argparse
import os

import numpy as np

from edsim import (
    Grid1D,
    WaveFunction,
    bayes_update,
    born_probabilities,
    chi2_gof,
    device_state,
    draw_outcomes,
    end_to_end,
    fourier_device,
    free_gaussian,
    ideal_likelihood,
    noisy_likelihood,
)
from edsim.io import atomic_write

N_TRIALS = 100000


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_out/pointer_inference")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    g = Grid1D(-10.0, 10.0, 32)
    psi = WaveFunction(g, free_gaussian(g.cells, sigma0=2.0, k0=0.5)).normalized()
    dev = fourier_device(g.n)
    vec = device_state(psi)
    probs = born_probabilities(dev, vec)

    outcomes = draw_outcomes(probs, N_TRIALS, args.seed)
    counts = np.bincount(outcomes, minlength=dev.dim)
    # the packet is narrow in the device basis; lump cells expecting < 5
    # counts into one bin so the chi-square reference holds
    major = probs * N_TRIALS >= 5.0
    counts_l = np.append(counts[major], counts[~major].sum())
    probs_l = np.append(probs[major], probs[~major].sum())
    stat, pval = chi2_gof(counts_l, probs_l)
    print(f"Born tallies over {N_TRIALS} draws on a {dev.dim}-cell device:")
    print(f"  chi2 = {stat:.1f} on {len(counts_l) - 1} dof "
          f"({int((~major).sum())} faint cells lumped), p = {pval:.3f}")
    lines = ["cell,born_probability,frequency"]
    lines += [f"{i},{probs[i]:.17g},{counts[i] / N_TRIALS:.17g}"
              for i in range(dev.dim)]
    atomic_write(os.path.join(args.out, "born.csv"), "\n".join(lines) + "\n")

    log = end_to_end(vec, dev, ideal_likelihood(dev.dim), N_TRIALS, args.seed)
    print(f"\nideal amplifier: MAP error rate {log.error_rate:.4f} "
          f"over {N_TRIALS} trials")

    print("\nnoisy amplifier (single pointer reading, Born prior):")
    print(f"  {'epsilon':>8} {'pointer flips':>14} {'MAP error':>10}")
    rows = ["epsilon,flip_rate,map_error_rate"]
    for eps in (0.05, 0.1, 0.2, 0.4):
        log = end_to_end(vec, dev, noisy_likelihood(dev.dim, eps),
                         N_TRIALS, args.seed)
        flips = float(np.mean(log.observed_r != log.true_i))
        print(f"  {eps:8.2f} {flips:14.4f} {log.error_rate:10.4f}")
        rows.append(f"{eps},{flips:.17g},{log.error_rate:.17g}")
    atomic_write(os.path.join(args.out, "errors.csv"), "\n".join(rows) + "\n")

    # one update worked in full on a 3-cell example
    prior = np.array([0.7, 0.2, 0.1])
    like = noisy_likelihood(3, 0.2)
    post = bayes_update(prior, like, observed_r=2)
    print("\nworked example: prior (0.7, 0.2, 0.1), epsilon 0.2, pointer reads 2")
    print(f"  posterior ({', '.join(f'{v:.3f}' for v in post)})"
          f" -> MAP cell {int(np.argmax(post))}")
    print(f"\nwrote {args.out}/born.csv and errors.csv")


if __name__ == "__main__":
    main()
