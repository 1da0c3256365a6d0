"""Per-layer metrics derived from the spans of a traced run.

Counts and self times are normalised per workload step (one key, one
signature with its verifications, one blind session with its attack trials,
one CLI script pass), so they compare across commits whatever the
throughput.  A span's self time is its duration minus the time its child
spans cover.  perfbench/README.md maps each metric to the end-to-end metric
it should move.
"""

SCHEMES = ("classic", "general", "variant1", "variant2", "rw")
CLI_COMMANDS = ("sign", "verify", "blind-demo", "attack", "selfcheck")

PRIME = "numtheory.is_probable_prime"
_CALLS = ("numtheory.jacobi", "numtheory.sqrt_mod_pq", "numtheory.canonical_sqrt_mod_pq",
          "numtheory.sqrt_mod_prime", "numtheory.crt_idempotents", "numtheory.mod_inv",
          "hashing.apply_redundancy", "keygen.gen_prime", "keygen.parse_key",
          "forgery.rsa_blinding_attack", "oracle.brute_valid", PRIME)
_SELF = ("numtheory.jacobi", "numtheory.sqrt_mod_pq", "schemes.parse_signature", "schemes.dump_signature",
         "hashing.apply_redundancy", "keygen.gen_prime", "keygen.build_padding_set", "keygen.parse_key",
         "blind.blind_sign", "blind.run_blind_session", "forgery.rsa_blinding_attack",
         "oracle.check_scheme_exhaustive", "oracle.brute_valid", "oracle.qr_set", PRIME)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, rec, overhead_pct):
    """Every per-layer metric of one traced phase, by name, and each span's root (for writing out)."""
    self_time, root = tracer.analyse()
    names, name_of = tracer.names, tracer.name
    span_count = len(tracer)
    calls, self_s, incl_s = {}, {}, {}
    for i in range(span_count):
        nm = names[name_of[i]]
        calls[nm] = calls.get(nm, 0) + 1
        self_s[nm] = self_s.get(nm, 0.0) + self_time[i]
        incl_s[nm] = incl_s.get(nm, 0.0) + tracer.end[i] - tracer.start[i]
    steps = rec.steps

    def spans_of(name, flags):
        target = names.index(name) if name in names else -1
        return [i for i in range(span_count) if flags[i] and name_of[i] == target]

    recertify = spans_of(PRIME, tracer.flags_under("keygen.KeyPair.from_primes"))
    candidates = spans_of(PRIME, tracer.flags_under("keygen.gen_prime"))
    session_roots = spans_of("numtheory.canonical_sqrt_mod_pq", tracer.flags_under("blind.run_blind_session"))

    m = {
        "error_rate": rec.error_rate,
        "trace.spans": _ratio(span_count, steps),
        "trace.overhead_pct": overhead_pct,
        f"{PRIME}.us_per_call": 1e6 * _ratio(self_s.get(PRIME, 0.0), calls.get(PRIME, 0)),
        f"{PRIME}.prime_ratio": _ratio(tracer.verdicts[PRIME], calls.get(PRIME, 0)),
        f"{PRIME}.recertify_ms": 1e3 * _ratio(sum(self_time[i] for i in recertify), steps),
        "keygen.gen_prime.candidates_per_prime": _ratio(len(candidates), calls.get("keygen.gen_prime", 0)),
        "keygen.gen_prime.per_key": _ratio(calls.get("keygen.gen_prime", 0), calls.get("keygen.gen_keypair", 0)),
        "blind.canonical_sqrt_per_session": _ratio(len(session_roots), calls.get("blind.run_blind_session", 0)),
        "forgery.naive_success_ratio": _ratio(rec.tallies["naive_successes"], rec.tallies["naive_trials"]),
        "forgery.hardened_success_ratio": _ratio(rec.tallies["hardened_successes"], rec.tallies["hardened_trials"]),
    }
    for fn in _CALLS:
        m[f"{fn}.calls"] = _ratio(calls.get(fn, 0), steps)
    for fn in _SELF:
        m[f"{fn}.self_ms"] = 1e3 * _ratio(self_s.get(fn, 0.0), steps)
    for s in SCHEMES:
        sign, verify = f"schemes.{s}_sign", f"schemes.{s}_verify"
        squares, products = tracer.op_counts.get(verify, (0, 0))
        m[f"schemes.sign.{s}.self_ms"] = 1e3 * _ratio(self_s.get(sign, 0.0), steps)
        m[f"schemes.sign.{s}.ms_per_call"] = 1e3 * _ratio(incl_s.get(sign, 0.0), calls.get(sign, 0))
        m[f"schemes.verify.{s}.self_us"] = 1e6 * _ratio(self_s.get(verify, 0.0), steps)
        m[f"schemes.verify.{s}.us_per_call"] = 1e6 * _ratio(incl_s.get(verify, 0.0), calls.get(verify, 0))
        m[f"schemes.verify.{s}.squares"] = _ratio(squares, tracer.verdicts[verify])
        m[f"schemes.verify.{s}.products"] = _ratio(products, tracer.verdicts[verify])
    cli_self = dict.fromkeys(CLI_COMMANDS, 0.0)
    for i in range(span_count):
        op = names[name_of[root[i]]]
        if i != root[i] and op.startswith("cli.") and names[name_of[i]].startswith("cli."):
            cli_self[op[4:]] += self_time[i]
    for sub, seconds in cli_self.items():
        m[f"cli.main.{sub}.self_ms"] = 1e3 * _ratio(seconds, steps)
    return m, root

