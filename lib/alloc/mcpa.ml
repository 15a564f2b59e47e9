let name = "MCPA"

let allocate ctx =
  Common.growth_loop ~level_budget:ctx.Common.procs ~gain:Common.Efficiency ctx
