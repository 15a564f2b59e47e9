(* The online baseline's allotment: give each task the processor count
   minimising [max(t(v,p), p*t(v,p)/P)], ties to the smaller count.
   For p <= P the area term never exceeds t(v,p), so this is the
   task's fastest count; the area term shows only through rounding at
   p = P. *)
let compromise_allotment ~tables ~procs =
  if procs < 1 then invalid_arg "Online_list: procs must be >= 1";
  let fprocs = float_of_int procs in
  Array.mapi
    (fun v row ->
      let pmax = min procs (Array.length row) in
      if pmax < 1 then
        invalid_arg
          (Printf.sprintf "Online_list: task %d has an empty time table" v);
      let best = ref 1 and best_score = ref infinity in
      for p = 1 to pmax do
        let tv = row.(p - 1) in
        if Float.is_nan tv || tv < 0. then
          invalid_arg
            (Printf.sprintf "Online_list: task %d has invalid time %g on %d"
               v tv p);
        let score = Float.max tv (float_of_int p *. tv /. fprocs) in
        (* strict [<]: ties keep the smaller processor count *)
        if score < !best_score then begin
          best := p;
          best_score := score
        end
      done;
      !best)
    tables
