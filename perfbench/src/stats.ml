(* Quantile estimates over latency samples. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Harrell-Davis estimate of the [q] quantile (Harrell and Davis,
   Biometrika 69, 1982): the mean of the sorted samples, sample i
   weighted by the Beta((n + 1) q, (n + 1) (1 - q)) mass of
   [(i - 1) / n, i / n].  A single order statistic jumps whenever noise
   reorders the samples around it, and on a shared machine whose speed
   shifts between states the sample at one rank is fast in one run and
   slow in the next; the weighted mean moves with the share of slow
   samples instead.  With [upto], only the [upto] smallest samples are
   weighted.  The masses are integrated by the midpoint rule, [steps]
   points per interval, in log space scaled by the largest density so
   that no term overflows. *)
let harrell_davis ?(steps = 32) ?upto q samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.harrell_davis: no samples"
  else if n = 1 then a.(0)
  else begin
    let nf = float_of_int n in
    let alpha = q *. (nf +. 1.) and beta = (1. -. q) *. (nf +. 1.) in
    let h = 1. /. (nf *. float_of_int steps) in
    let log_density k =
      let x = (float_of_int k +. 0.5) *. h in
      ((alpha -. 1.) *. log x) +. ((beta -. 1.) *. Float.log1p (-.x))
    in
    let points = Option.value upto ~default:n * steps in
    let peak = ref neg_infinity in
    for k = 0 to points - 1 do peak := Float.max !peak (log_density k) done;
    let total = ref 0. and sum = ref 0. in
    for k = 0 to points - 1 do
      let w = exp (log_density k -. !peak) in
      total := !total +. w;
      sum := !sum +. (w *. a.(k / steps))
    done;
    !sum /. !total
  end

let median samples = harrell_davis 0.5 samples

(* The plain sample median: the middle sample, or the mean of the two
   middle ones.  Used over per-block figures, which are few and each
   already a smoothed estimate; unlike [median] it gives the extreme
   blocks no weight at all. *)
let middle samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.middle: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = {
  value : float;
  percentile : float;  (** the percentile [value] estimates *)
  beyond : int;        (** samples beyond that percentile, per block *)
  blocks : int;        (** blocks the value is the median of *)
}

(* The highest percentile that still has at least [min_beyond] samples
   beyond it: 100 (n - min_beyond) / n, the percentile of the sample of
   rank n - min_beyond, estimated by [harrell_davis] over the samples up
   to that rank.  The samples beyond it are left out because the
   estimate's weights reach the largest sample, and one stall there (a
   host hiccup of 10 ms among 7000 edits of 2 ms) would move it.  With
   too few samples no percentile qualifies, and the maximum is reported
   with the number of samples actually beyond it (none). *)
let tail ?(min_beyond = 10) samples =
  let n = List.length samples in
  if n = 0 then invalid_arg "Stats.tail: no samples"
  else if n <= min_beyond then
    { value = List.fold_left Float.max neg_infinity samples; percentile = 100.; beyond = 0;
      blocks = 1 }
  else
    let q = float_of_int (n - min_beyond) /. float_of_int n in
    {
      value = harrell_davis ~upto:(n - min_beyond) q samples;
      percentile = 100. *. q;
      beyond = min_beyond;
      blocks = 1;
    }

(* [tail] of each complete block of [block] consecutive samples (in the
   order they were taken), and the median of those.  The percentile is
   then fixed by [block], not by how many samples a run completes, and
   a host stall that lifts one block's tail does not move the median of
   the blocks.  Samples after the last complete block are left out;
   with fewer than [block] samples the whole run is one block. *)
let block_tail ?min_beyond ~block samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n < block then tail ?min_beyond samples
  else
    let tails =
      List.init (n / block) (fun b -> tail ?min_beyond (Array.to_list (Array.sub a (b * block) block)))
    in
    let first = List.hd tails in
    { first with value = middle (List.map (fun t -> t.value) tails); blocks = List.length tails }

(* Operations per second: the median over complete blocks of [block]
   operations, each block's rate being [block] over the seconds from
   the previous block's last completion (or the window's start) to its
   own.  [times] are the completion times in the window, in order.  A
   stall of the host slows one block and leaves the median alone.
   With fewer than [block] operations, the rate over the whole
   window. *)
let block_rate ~block ~window_s times =
  let a = Array.of_list times in
  let n = Array.length a in
  if n < block then float_of_int n /. window_s
  else
    middle
      (List.init (n / block) (fun b ->
           let start = if b = 0 then 0. else a.((b * block) - 1) in
           float_of_int block /. (a.(((b + 1) * block) - 1) -. start)))
