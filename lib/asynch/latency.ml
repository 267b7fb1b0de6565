(* Per-edge latency models for the event-driven executor.

   A [spec] is pure data: seed + distribution + optional bandwidth caps.
   All randomness is drawn from the named streams Streams.asynch_latency
   and Streams.asynch_bandwidth, so a schedule is a pure function of the
   spec — replaying a run (same graph, same algorithm, same spec) pops
   the identical event sequence, on any domain, at any --jobs setting —
   and latency randomness can never share bits with fault plans or an
   algorithm's own seeded choices. *)

type model =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Pareto of { alpha : float; xmin : float }

type spec = { seed : int; model : model; bw : (float * float) option }

let model_name = function
  | Constant _ -> "const"
  | Uniform _ -> "uniform"
  | Exponential _ -> "exp"
  | Pareto _ -> "pareto"

let validate_model = function
  | Constant c ->
      if not (c > 0.0) then invalid_arg "Latency: constant latency <= 0"
  | Uniform (lo, hi) ->
      if not (lo >= 0.0 && hi >= lo && hi > 0.0) then
        invalid_arg "Latency: uniform bounds need 0 <= lo <= hi, hi > 0"
  | Exponential mean ->
      if not (mean > 0.0) then invalid_arg "Latency: exponential mean <= 0"
  | Pareto { alpha; xmin } ->
      if not (alpha > 0.0 && xmin > 0.0) then
        invalid_arg "Latency: pareto needs alpha > 0 and xmin > 0"

let make ?bw ~seed model =
  validate_model model;
  (match bw with
  | Some (lo, hi) ->
      if not (lo > 0.0 && hi >= lo) then
        invalid_arg "Latency: bandwidth caps need 0 < lo <= hi"
  | None -> ());
  { seed; model; bw }

(* distribution mean, for normalizing cross-model comparisons; the
   Pareto mean is infinite at alpha <= 1 *)
let mean_latency = function
  | Constant c -> c
  | Uniform (lo, hi) -> 0.5 *. (lo +. hi)
  | Exponential mean -> mean
  | Pareto { alpha; xmin } ->
      if alpha <= 1.0 then Float.infinity
      else alpha *. xmin /. (alpha -. 1.0)

type sampler = { st : Random.State.t; model : model; fast : bool }

let sampler (spec : spec) =
  validate_model spec.model;
  {
    st = Faults.Rng.named ~seed:spec.seed Faults.Streams.asynch_latency;
    model = spec.model;
    fast = Graphlib.Fastrand.active ();
  }

(* [Random.State.float st 1.0], unboxed when [Fastrand] reproduces the
   stream: that call is rawfloat *. 1.0, and [draw53] is the rawfloat's
   mantissa, so the value and the stream advance are identical *)
let[@inline] unit_float s =
  if s.fast then float_of_int (Graphlib.Fastrand.draw53 s.st) *. 0x1.p-53
  else Random.State.float s.st 1.0

(* [Random.State.float st b] is rawfloat *. b, so every model below draws
   exactly the values it drew through the stdlib *)
let[@inline] draw s =
  match s.model with
  | Constant c -> c
  | Uniform (lo, hi) -> lo +. (unit_float s *. (hi -. lo))
  | Exponential mean ->
      (* inverse CDF on u in [0, 1): -mean ln(1 - u) *)
      -.mean *. log (1.0 -. unit_float s)
  | Pareto { alpha; xmin } ->
      (* inverse CDF: xmin (1 - u)^(-1/alpha); heavy tail for alpha <= 2 *)
      xmin /. ((1.0 -. unit_float s) ** (1.0 /. alpha))

(* per-undirected-edge bandwidth caps in words per simulated time unit,
   sampled once per edge in edge-id order; None means uncapped links *)
let edge_caps (spec : spec) ~m =
  match spec.bw with
  | None -> None
  | Some (lo, hi) ->
      let st = Faults.Rng.named ~seed:spec.seed Faults.Streams.asynch_bandwidth in
      Some (Array.init m (fun _ -> lo +. Random.State.float st (hi -. lo)))

let fields (spec : spec) =
  [
    ("model", Obs.Sink.String (model_name spec.model));
    ("lat_seed", Obs.Sink.Int spec.seed);
    ("lat_mean", Obs.Sink.Float (mean_latency spec.model));
    ( "bw_capped",
      Obs.Sink.Bool (match spec.bw with Some _ -> true | None -> false) );
  ]
